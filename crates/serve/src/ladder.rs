//! The degradation ladder over the tier registry.
//!
//! Sphere decoding is exact but has heavy-tailed, SNR-dependent latency;
//! a deadline-bound service cannot always afford it. Instead of missing
//! deadlines or shedding admitted work, the runtime *degrades*: each
//! request is decoded at the first registry tier (ordered most → least
//! accurate) whose predicted cost (from the [`crate::budget::CostModel`])
//! fits the time remaining until its deadline. Accuracy falls gracefully
//! down the registry while latency stays bounded — admitted work is
//! always answered, in the worst case by the registry's floor tier.
//!
//! Under a sharded runtime each shard owns its own `CostModel`, so the
//! ladder's predictions are trained by the traffic that shard actually
//! serves — affinity routing keeps a channel population's cost history
//! with its shard. A worker serving stolen work consults its *own*
//! shard's model (the ladder decision is advisory; correctness never
//! depends on which model predicted).

use crate::budget::CostModel;
use crate::registry::Tier;
use sd_core::DecodeBudget;
use std::time::{Duration, Instant};

/// Node-budget floor handed to anytime decodes. Below this the truncated
/// search degenerates to pure greedy completion with no tree context at
/// all — at that point the floor tier is the honest answer, so the ladder
/// never issues a tighter cap.
pub const MIN_ANYTIME_NODES: u64 = 64;

/// Fraction of the remaining time an anytime budget actually spends
/// searching. Budgeting 100% of the remaining time is a latent miss: a
/// decode truncated *at* the deadline still has egress, accounting, and
/// the deadline-sampling granularity (the engine checks the clock every
/// 64 expansions) on top, so it lands a hair past the deadline and is
/// counted missed anyway — truncation then saves nothing. The margin
/// leaves that headroom inside the deadline, which is what converts a
/// mispredicted decode from a miss into an on-time truncated answer.
pub const ANYTIME_MARGIN: f64 = 0.85;

/// Ladder configuration.
#[derive(Copy, Clone, Debug)]
pub struct LadderConfig {
    /// Master switch; disabled means every request decodes at tier 0
    /// (deadlines can then be missed — the benchmark's control arm).
    pub enabled: bool,
    /// Survivors per level at the default registry's K-best rung.
    pub kbest_k: usize,
    /// Anytime mode: when set, tier decisions also carry an explicit
    /// [`DecodeBudget`] (node cap from the cost model's ns-per-node rate
    /// plus a wall-clock deadline) so a mispredicted decode truncates at
    /// its deadline with a best-so-far answer instead of blowing it.
    /// Off by default — the reactive ladder, the benchmark's control arm.
    pub anytime: bool,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            enabled: true,
            kbest_k: 16,
            anytime: false,
        }
    }
}

/// An admission decision: which tier serves the request, and under what
/// decode budget. The budget is [`DecodeBudget::UNLIMITED`] unless the
/// ladder runs in anytime mode ([`LadderConfig::anytime`]).
#[derive(Clone, Debug)]
pub struct TierDecision {
    /// Index into the tier registry.
    pub tier: usize,
    /// Per-vector decode budget to pass to the engine.
    pub budget: DecodeBudget,
}

/// The admission decision for one queue item of `block` receive vectors
/// (1 for a single vector): the first tier (most → least accurate) whose
/// predicted cost — the per-vector prediction at this channel
/// conditioning (`condition_log2`, when known) scaled by the block size —
/// fits the remaining budget, plus, in anytime mode, an explicit
/// per-vector [`DecodeBudget`] derived up front from the same model, so
/// the decode *cannot* overrun the deadline even when the prediction was
/// wrong. A 64-subcarrier frame thus degrades when 64× the per-vector
/// cost would blow its deadline, not when one vector would. The last tier
/// is the unconditional floor and its prediction is never consulted.
///
/// An exhausted budget (`remaining == 0`) goes straight to the floor: the
/// deadline is already lost, so the cheapest answer minimizes the damage
/// to everything still queued behind. A cold model predicts zero cost and
/// therefore chooses tier 0 — optimistic until evidence accumulates.
///
/// The budget's node cap is the remaining time (split across the `block`
/// vectors) divided by the model's ns-per-node rate, floored at
/// [`MIN_ANYTIME_NODES`]; a cold model (no node rate yet) caps nothing.
/// The wall-clock deadline backstops the node cap against rate drift.
///
/// Tier selection is monotone in `remaining`: a larger budget admits a
/// superset of tiers at every rung, so the chosen index never increases
/// (never *less* accurate) as the budget grows.
#[allow(clippy::too_many_arguments)]
pub fn choose_tier(
    cfg: &LadderConfig,
    model: &CostModel,
    tiers: &[Tier],
    snr_db: f64,
    condition_log2: Option<f64>,
    m: usize,
    p: usize,
    remaining: Duration,
    block: usize,
) -> TierDecision {
    // Guards must precede any index arithmetic: `tiers.len() - 1` on an
    // empty registry underflows (panics in debug) even on the disabled
    // path that never indexes.
    if !cfg.enabled || tiers.is_empty() {
        return TierDecision {
            tier: 0,
            budget: DecodeBudget::UNLIMITED,
        };
    }
    let last = tiers.len() - 1;
    let tier = if remaining.is_zero() {
        last
    } else {
        let budget_ns = remaining.as_nanos() as f64;
        tiers[..last]
            .iter()
            .enumerate()
            .position(|(i, tier)| {
                model.predict_ns(i, &tier.cost, snr_db, condition_log2, m, p) * block as f64
                    <= budget_ns
            })
            .unwrap_or(last)
    };
    let budget = if cfg.anytime {
        anytime_budget(model, remaining, block)
    } else {
        DecodeBudget::UNLIMITED
    };
    TierDecision { tier, budget }
}

/// Derive the anytime per-vector [`DecodeBudget`] from the model's node
/// rate and the time left, spending only [`ANYTIME_MARGIN`] of it so a
/// truncated decode returns *inside* the deadline (not at it).
fn anytime_budget(model: &CostModel, remaining: Duration, block: usize) -> DecodeBudget {
    let spendable = remaining.mul_f64(ANYTIME_MARGIN);
    let deadline = Instant::now() + spendable;
    let rate = model.ns_per_node();
    let max_nodes = if rate > 0.0 {
        let per_vector_ns = spendable.as_nanos() as f64 / block.max(1) as f64;
        ((per_vector_ns / rate).floor() as u64).max(MIN_ANYTIME_NODES)
    } else {
        u64::MAX
    };
    DecodeBudget {
        max_nodes,
        deadline: Some(deadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;
    use sd_wireless::{Constellation, Modulation};

    fn registry() -> Vec<Tier> {
        default_registry(
            &Constellation::new(Modulation::Qam4),
            &LadderConfig::default(),
        )
    }

    fn trained_model() -> CostModel {
        let m = CostModel::new(3);
        // 100 ns/node; exact cost at 8 dB ≈ 10_000 nodes = 1 ms.
        m.observe(
            0,
            &crate::budget::TierCostClass::Adaptive,
            8.0,
            None,
            10_000,
            1_000_000,
        );
        m
    }

    /// The decision for a `block`-vector item of 8 antennas, QAM4, 8 dB.
    fn pick(
        cfg: &LadderConfig,
        model: &CostModel,
        tiers: &[Tier],
        remaining: Duration,
        block: usize,
    ) -> TierDecision {
        choose_tier(cfg, model, tiers, 8.0, None, 8, 4, remaining, block)
    }

    #[test]
    fn disabled_ladder_always_tier_zero() {
        let cfg = LadderConfig {
            enabled: false,
            ..LadderConfig::default()
        };
        let model = trained_model();
        assert_eq!(pick(&cfg, &model, &registry(), Duration::ZERO, 1).tier, 0);
    }

    #[test]
    fn zero_budget_goes_to_floor() {
        let cfg = LadderConfig::default();
        let model = CostModel::new(3); // even a cold model
        assert_eq!(pick(&cfg, &model, &registry(), Duration::ZERO, 1).tier, 2);
    }

    #[test]
    fn cold_model_is_optimistic() {
        let cfg = LadderConfig::default();
        let model = CostModel::new(3);
        let d = pick(&cfg, &model, &registry(), Duration::from_nanos(1), 1);
        assert_eq!(d.tier, 0);
    }

    #[test]
    fn ladder_descends_with_budget() {
        let cfg = LadderConfig::default();
        let model = trained_model();
        let tiers = registry();
        let tier = |remaining| pick(&cfg, &model, &tiers, remaining, 1).tier;
        // Plenty of budget: exact (predicted 1 ms).
        assert_eq!(tier(Duration::from_millis(10)), 0);
        // K-best at 8 antennas, order 4, K=16: analytic nodes × 100 ns
        // ≈ 44 µs ≪ 500 µs < 1 ms → middle rung.
        assert_eq!(tier(Duration::from_micros(500)), 1);
        // Too tight even for K-best → the MMSE floor.
        assert_eq!(tier(Duration::from_micros(10)), 2);
    }

    #[test]
    fn block_scaling_degrades_frames_earlier() {
        // At 500 µs a single vector rides K-best (~44 µs predicted; exact
        // is 1 ms). A 16-vector block multiplies every rung's cost:
        // 16 × 44 µs ≈ 700 µs > 500 µs pushes the whole block to the MMSE
        // floor.
        let cfg = LadderConfig::default();
        let model = trained_model();
        let tiers = registry();
        let tier = |remaining, block| pick(&cfg, &model, &tiers, remaining, block).tier;
        let budget = Duration::from_micros(500);
        assert_eq!(tier(budget, 1), 1);
        assert_eq!(tier(budget, 16), 2);
        // A big-enough budget restores the exact rung even at block 16.
        assert_eq!(tier(Duration::from_millis(100), 16), 0);
    }

    #[test]
    fn single_tier_registry_never_degrades() {
        let cfg = LadderConfig::default();
        let model = CostModel::new(1);
        let mut tiers = registry();
        tiers.truncate(1);
        assert_eq!(pick(&cfg, &model, &tiers, Duration::ZERO, 1).tier, 0);
    }

    /// Regression: `tiers.len() - 1` ran *before* the enabled/empty
    /// guards, so an empty registry underflowed (debug panic) even on
    /// paths that never index. Both must return tier 0 instead.
    #[test]
    fn empty_registry_does_not_underflow() {
        let model = CostModel::new(0);
        let none: Vec<Tier> = Vec::new();
        let disabled = LadderConfig {
            enabled: false,
            ..LadderConfig::default()
        };
        assert_eq!(pick(&disabled, &model, &none, Duration::ZERO, 1).tier, 0);
        let enabled = LadderConfig::default();
        let d = pick(&enabled, &model, &none, Duration::from_millis(1), 4);
        assert_eq!(d.tier, 0);
    }

    /// The reactive ladder (anytime off) always hands out an unlimited
    /// budget — decisions are bit-identical to the pre-anytime code.
    #[test]
    fn reactive_ladder_budget_is_unlimited() {
        let cfg = LadderConfig::default();
        let model = trained_model();
        let d = pick(&cfg, &model, &registry(), Duration::from_millis(10), 1);
        assert_eq!(d.tier, 0);
        assert!(d.budget.is_unlimited());
    }

    /// Anytime decisions carry a node cap sized by the model's node rate
    /// and split across the block, floored at [`MIN_ANYTIME_NODES`], with
    /// a wall-clock deadline backstop. A cold model caps nothing.
    #[test]
    fn anytime_budget_tracks_the_node_rate() {
        let cfg = LadderConfig {
            anytime: true,
            ..LadderConfig::default()
        };
        let model = trained_model(); // 100 ns/node
        let tiers = registry();
        // 10 ms at 100 ns/node, spending the 0.85 margin → 85_000 nodes
        // per vector.
        let d = pick(&cfg, &model, &tiers, Duration::from_millis(10), 1);
        assert_eq!(d.budget.max_nodes, 85_000);
        assert!(d.budget.deadline.is_some());
        // A 10-vector block splits the same time budget ten ways.
        let d10 = pick(&cfg, &model, &tiers, Duration::from_millis(10), 10);
        assert_eq!(d10.budget.max_nodes, 8_500);
        // A microscopic budget still leaves the greedy floor.
        let tight = pick(&cfg, &model, &tiers, Duration::from_nanos(1), 1);
        assert_eq!(tight.budget.max_nodes, MIN_ANYTIME_NODES);
        // Cold model: no node rate, so no node cap (deadline still set).
        let cold = CostModel::new(3);
        let dc = pick(&cfg, &cold, &tiers, Duration::from_millis(1), 1);
        assert_eq!(dc.budget.max_nodes, u64::MAX);
        assert!(dc.budget.deadline.is_some());
    }

    /// Tier choice is monotone in the remaining budget: growing the
    /// budget never selects a *less* accurate (higher-index) tier.
    #[test]
    fn tier_choice_is_monotone_in_budget() {
        let cfg = LadderConfig::default();
        let model = trained_model();
        let tiers = registry();
        let mut prev = usize::MAX;
        for us in [0u64, 1, 10, 50, 100, 500, 1_000, 5_000, 10_000] {
            let t = pick(&cfg, &model, &tiers, Duration::from_micros(us), 1).tier;
            assert!(
                t <= prev || prev == usize::MAX,
                "budget {us} µs picked tier {t} after {prev}"
            );
            prev = t;
        }
        assert_eq!(prev, 0, "the largest budget restores the exact tier");
    }
}
