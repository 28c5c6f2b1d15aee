//! Running cost model feeding the degradation ladder.
//!
//! Exact sphere decoding has SNR-dependent cost (the paper's Fig. 6–10:
//! low SNR explores orders of magnitude more nodes), so a deadline
//! decision needs a *per-SNR* estimate. The model keeps, per registered
//! tier, an EWMA of nodes-generated per SNR bucket (4 dB wide) plus a
//! tier-level EWMA of service nanoseconds, and a single shared EWMA of
//! nanoseconds-per-node fed by every tree-search decode. How a tier's
//! cost is predicted is declared by its [`TierCostClass`]:
//!
//! * [`TierCostClass::Adaptive`] — `nodes[bucket] × ns_per_node`
//!   (SNR-dependent tree searches, e.g. the exact decoder);
//! * [`TierCostClass::Fixed`] — `analytic_nodes(m, p) × ns_per_node`
//!   (workloads fixed by construction, e.g. a K-best sweep);
//! * [`TierCostClass::Linear`] — the tier's flat service-time EWMA
//!   (the linear detectors, whose cost has no tree at all).
//!
//! Unsampled cells predict zero — the model is optimistic until it has
//! evidence, so a cold runtime starts at the most accurate tier and only
//! degrades once observations justify it. All cells are `f64`
//! bit-patterns in atomics: readers never lock, writers CAS.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub use sd_core::WorkerBudget;

/// Policy of the adaptive core-budget controller (see
/// [`crate::runtime::ServeConfig::with_core_budget`]).
///
/// The controller watches the summed shard backlog (an EWMA, smoothed by
/// `alpha`) normalized by the worker count — "queued items per worker" —
/// and splits the physical `cores` allowance between the two parallelism
/// levels:
///
/// * load ≤ `low_watermark` → **latency plan**: the request-level workers
///   are mostly idle, so the subtree-parallel exact decoder gets the whole
///   allowance (`budget = cores`) and each decode finishes sooner;
/// * load ≥ `high_watermark` → **throughput plan**: the backlog needs many
///   independent decodes in flight, so the broadcast pool is narrowed to
///   `max(1, cores / n_workers)` lanes and the cores go to the workers;
/// * in between → hold the current plan (hysteresis — the gap between the
///   watermarks is the dead band that stops the budget from flapping on a
///   load level that hovers near one threshold).
#[derive(Clone, Debug)]
pub struct CoreBudgetPolicy {
    /// Physical core allowance being split (defaults to
    /// [`crate::runtime::default_core_allowance`]).
    pub cores: usize,
    /// Re-planning cadence — deliberately slow next to the decode rate, so
    /// plans settle between changes.
    pub period: Duration,
    /// EWMA load (queued items per worker) at or below which the
    /// controller plans for latency.
    pub low_watermark: f64,
    /// EWMA load at or above which the controller plans for throughput.
    pub high_watermark: f64,
    /// EWMA smoothing factor for the observed backlog.
    pub alpha: f64,
}

impl Default for CoreBudgetPolicy {
    fn default() -> Self {
        CoreBudgetPolicy {
            cores: crate::runtime::default_core_allowance(),
            period: Duration::from_millis(100),
            low_watermark: 0.5,
            high_watermark: 2.0,
            alpha: 0.3,
        }
    }
}

/// 4 dB-wide SNR buckets covering 0–28 dB (clamped outside).
const N_SNR_BUCKETS: usize = 8;
const BUCKET_WIDTH_DB: f64 = 4.0;
/// Channel-conditioning buckets over the [`sd_core::ChannelObservables`]
/// condition proxy (`log2` of the per-stream gain spread): near-unitary,
/// mild, skewed, near-singular. Coarse on purpose — each (SNR, condition)
/// cell must still see enough traffic to train.
const N_COND_BUCKETS: usize = 4;
/// Upper edges of the first `N_COND_BUCKETS − 1` condition buckets; the
/// last bucket is open-ended.
const COND_EDGES_LOG2: [f64; N_COND_BUCKETS - 1] = [1.0, 2.5, 5.0];
/// EWMA smoothing factor.
const ALPHA: f64 = 0.2;
/// Bit pattern marking an EWMA cell that has never been written (a quiet
/// NaN). A *value* sentinel like `0.0` is wrong here: a legitimate 0-ns
/// observation (coarse clocks, sub-tick decodes) would leave the cell
/// looking unsampled and re-adopt every next sample forever.
const UNSAMPLED: u64 = 0x7FF8_0000_0000_0000;

/// SNR bucket index. Total: every `f64` maps somewhere. Non-finite SNR
/// maps to bucket 0 like any very low SNR — but it can only be *read*
/// there: request construction rejects non-finite SNR and
/// [`CostModel::observe`] refuses to train on it, so the low-SNR
/// curve cannot be poisoned through this path.
fn bucket(snr_db: f64) -> usize {
    if snr_db.is_nan() {
        return 0;
    }
    ((snr_db / BUCKET_WIDTH_DB)
        .floor()
        .clamp(0.0, (N_SNR_BUCKETS - 1) as f64)) as usize
}

/// Condition bucket index from the `log2` condition proxy (see
/// [`sd_core::ChannelObservables::condition_log2`]). Total: non-finite
/// maps to the worst (near-singular) bucket.
fn cond_bucket(condition_log2: f64) -> usize {
    if !condition_log2.is_finite() {
        return N_COND_BUCKETS - 1;
    }
    COND_EDGES_LOG2
        .iter()
        .position(|&edge| condition_log2 < edge)
        .unwrap_or(N_COND_BUCKETS - 1)
}

/// Read an EWMA cell as a prediction input: unsampled (NaN sentinel)
/// reads as 0 so the model stays optimistic until it has evidence.
fn load_sample(cell: &AtomicU64) -> f64 {
    let v = f64::from_bits(cell.load(Ordering::Relaxed));
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// `true` when the cell has at least one sample.
fn is_sampled(cell: &AtomicU64) -> bool {
    !f64::from_bits(cell.load(Ordering::Relaxed)).is_nan()
}

/// EWMA update via CAS; an unsampled cell (NaN sentinel, *not* `0.0` —
/// zero is a legitimate observation) adopts the first sample. Non-finite
/// samples are discarded so no observation stream can poison a cell.
fn ewma_update(cell: &AtomicU64, x: f64) {
    if !x.is_finite() {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let old = f64::from_bits(cur);
        let new = if old.is_nan() {
            x
        } else {
            old + ALPHA * (x - old)
        };
        match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// How a registered tier's decode cost is modeled and predicted.
pub enum TierCostClass {
    /// SNR-dependent tree search: a per-SNR-bucket EWMA node curve times
    /// the shared ns-per-node rate. Observations feed both.
    Adaptive,
    /// Workload fixed by construction: an analytic node count (a function
    /// of antennas `m` and constellation order `p`) times the shared
    /// ns-per-node rate. Observations feed only the node rate — a fixed
    /// workload would bias the adaptive curves.
    Fixed(Box<dyn Fn(usize, usize) -> u64 + Send + Sync>),
    /// No tree: predicted cost is the tier's own flat service-time EWMA.
    Linear,
}

impl TierCostClass {
    /// The [`TierCostClass::Fixed`] class of a width-`k` K-best sweep.
    pub fn fixed_kbest(k: usize) -> Self {
        TierCostClass::Fixed(Box::new(move |m, p| kbest_nodes(m, p, k)))
    }

    /// The [`TierCostClass::Fixed`] class of an FSD sweep with `n_fe`
    /// full-expansion levels.
    pub fn fixed_fsd(n_fe: usize) -> Self {
        TierCostClass::Fixed(Box::new(move |m, p| fsd_nodes(m, p, n_fe)))
    }
}

impl std::fmt::Debug for TierCostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TierCostClass::Adaptive => "Adaptive",
            TierCostClass::Fixed(_) => "Fixed(..)",
            TierCostClass::Linear => "Linear",
        })
    }
}

/// Per-tier model cells.
struct TierCost {
    /// EWMA of nodes generated, per SNR bucket (f64 bits); only fed by
    /// [`TierCostClass::Adaptive`] tiers. The marginal curve — trained by
    /// every adaptive observation regardless of channel conditioning.
    nodes: [AtomicU64; N_SNR_BUCKETS],
    /// Condition-resolved node curve: `N_SNR_BUCKETS × N_COND_BUCKETS`
    /// cells (SNR-major), fed only by observations that carried a channel
    /// condition observable. Predictions prefer a sampled conditioned
    /// cell and fall back to the SNR marginal — the Dabah trade-off: an
    /// ill-conditioned channel at a given SNR costs orders of magnitude
    /// more nodes than a well-conditioned one.
    cond_nodes: [AtomicU64; N_SNR_BUCKETS * N_COND_BUCKETS],
    /// EWMA of this tier's service nanoseconds (f64 bits); prediction
    /// input for [`TierCostClass::Linear`], informational otherwise.
    service_ns: AtomicU64,
}

/// Shared, lock-free cost model over the registered tiers.
pub struct CostModel {
    tiers: Vec<TierCost>,
    /// EWMA of decode nanoseconds per generated node (f64 bits), fed by
    /// every tree-search decode regardless of tier.
    ns_per_node: AtomicU64,
}

impl CostModel {
    /// Fresh (fully optimistic) model for `n_tiers` registered tiers.
    pub fn new(n_tiers: usize) -> Self {
        CostModel {
            tiers: (0..n_tiers)
                .map(|_| TierCost {
                    nodes: std::array::from_fn(|_| AtomicU64::new(UNSAMPLED)),
                    cond_nodes: std::array::from_fn(|_| AtomicU64::new(UNSAMPLED)),
                    service_ns: AtomicU64::new(UNSAMPLED),
                })
                .collect(),
            ns_per_node: AtomicU64::new(UNSAMPLED),
        }
    }

    /// Record one served decode at tier `tier` with cost class `class`.
    /// Tree tiers (`nodes_generated > 0` required) feed the shared node
    /// rate, adaptive tiers additionally feed their per-SNR node curve —
    /// and, when the decode carried the channel-conditioning observable
    /// (`condition_log2`, see [`sd_core::ChannelObservables`]), the
    /// (SNR, condition) cell, so later predictions can separate benign
    /// from near-singular channels at the same SNR — and every tier feeds
    /// its own service-time EWMA. A non-finite `snr_db` trains nothing
    /// SNR-keyed: it would land in bucket 0 and poison the lowest-SNR
    /// curve.
    pub fn observe(
        &self,
        tier: usize,
        class: &TierCostClass,
        snr_db: f64,
        condition_log2: Option<f64>,
        nodes_generated: u64,
        elapsed_ns: u64,
    ) {
        let cells = &self.tiers[tier];
        ewma_update(&cells.service_ns, elapsed_ns as f64);
        match class {
            TierCostClass::Adaptive | TierCostClass::Fixed(_) => {
                if nodes_generated == 0 {
                    return;
                }
                if matches!(class, TierCostClass::Adaptive) && snr_db.is_finite() {
                    let b = bucket(snr_db);
                    ewma_update(&cells.nodes[b], nodes_generated as f64);
                    if let Some(c) = condition_log2 {
                        ewma_update(
                            &cells.cond_nodes[b * N_COND_BUCKETS + cond_bucket(c)],
                            nodes_generated as f64,
                        );
                    }
                }
                ewma_update(
                    &self.ns_per_node,
                    elapsed_ns as f64 / nodes_generated as f64,
                );
            }
            TierCostClass::Linear => {}
        }
    }

    /// Predicted decode nanoseconds for tier `tier` under `class` at this
    /// operating point; 0 (optimistic) until the relevant cells have
    /// samples. An adaptive tier reads the (SNR, condition) cell when a
    /// condition observable is given and that cell has samples, the SNR
    /// marginal otherwise.
    pub fn predict_ns(
        &self,
        tier: usize,
        class: &TierCostClass,
        snr_db: f64,
        condition_log2: Option<f64>,
        m: usize,
        p: usize,
    ) -> f64 {
        match class {
            TierCostClass::Adaptive => {
                self.predicted_nodes(tier, snr_db, condition_log2) * self.ns_per_node()
            }
            TierCostClass::Fixed(nodes) => nodes(m, p) as f64 * self.ns_per_node(),
            TierCostClass::Linear => self.tier_service_ns(tier),
        }
    }

    /// Expected nodes for an adaptive tier at this (SNR, condition)
    /// operating point (0 when unsampled), falling back to the SNR
    /// marginal when the conditioned cell is unsampled or no condition was
    /// supplied.
    pub fn predicted_nodes(&self, tier: usize, snr_db: f64, condition_log2: Option<f64>) -> f64 {
        let cells = &self.tiers[tier];
        let b = bucket(snr_db);
        if let Some(c) = condition_log2 {
            let cell = &cells.cond_nodes[b * N_COND_BUCKETS + cond_bucket(c)];
            if is_sampled(cell) {
                return load_sample(cell);
            }
        }
        load_sample(&cells.nodes[b])
    }

    /// Current shared ns-per-node estimate (0 when unsampled).
    pub fn ns_per_node(&self) -> f64 {
        load_sample(&self.ns_per_node)
    }

    /// Observed mean service time of tier `tier` in ns (0 when unsampled).
    pub fn tier_service_ns(&self, tier: usize) -> f64 {
        load_sample(&self.tiers[tier].service_ns)
    }

    /// Number of registered tiers.
    pub fn n_tiers(&self) -> usize {
        self.tiers.len()
    }
}

/// Exact node count of a K-best sweep: the frontier starts at the root,
/// multiplies by `p` each level, and is truncated at `k` survivors.
pub fn kbest_nodes(m: usize, p: usize, k: usize) -> u64 {
    let mut frontier = 1u64;
    let mut total = 0u64;
    for _ in 0..m {
        total += frontier * p as u64;
        frontier = (frontier * p as u64).min(k as u64);
    }
    total
}

/// Exact node count of an FSD sweep with `n_fe` full-expansion levels:
/// the frontier multiplies by `p` across the first `n_fe` levels, then
/// stays flat while each survivor extends by its single best (SIC)
/// child. Every level still *evaluates* `frontier × p` children.
pub fn fsd_nodes(m: usize, p: usize, n_fe: usize) -> u64 {
    let mut frontier = 1u64;
    let mut total = 0u64;
    for d in 0..m {
        total += frontier * p as u64;
        if d < n_fe {
            frontier *= p as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_grid() {
        assert_eq!(bucket(-3.0), 0);
        assert_eq!(bucket(0.0), 0);
        assert_eq!(bucket(4.0), 1);
        assert_eq!(bucket(13.9), 3);
        assert_eq!(bucket(40.0), 7);
    }

    #[test]
    fn kbest_node_count_matches_hand_calc() {
        // m=3, p=4, k=8: 4 + 16 + 32 (frontier 1 → 4 → 8 capped).
        assert_eq!(kbest_nodes(3, 4, 8), 52);
        // Uncapped (k huge) is the full tree P + P² + P³.
        assert_eq!(kbest_nodes(3, 4, 1_000_000), 4 + 16 + 64);
    }

    #[test]
    fn fsd_node_count_matches_hand_calc() {
        // m=3, p=4, n_fe=1: level 0 expands 1·4, then the frontier is
        // flat at 4 survivors → 4 + 16 + 16.
        assert_eq!(fsd_nodes(3, 4, 1), 36);
        // n_fe = m degenerates to the full tree.
        assert_eq!(fsd_nodes(3, 4, 3), 4 + 16 + 64);
        // n_fe = 0 is pure SIC: p evaluated per level.
        assert_eq!(fsd_nodes(3, 4, 0), 12);
    }

    #[test]
    fn cold_model_is_optimistic() {
        let m = CostModel::new(3);
        let kb = TierCostClass::fixed_kbest(16);
        assert_eq!(
            m.predict_ns(0, &TierCostClass::Adaptive, 8.0, None, 8, 4),
            0.0
        );
        assert_eq!(m.predict_ns(1, &kb, 8.0, None, 8, 4), 0.0);
        assert_eq!(
            m.predict_ns(2, &TierCostClass::Linear, 8.0, None, 8, 4),
            0.0
        );
    }

    #[test]
    fn observations_separate_snr_buckets() {
        let m = CostModel::new(1);
        let exact = TierCostClass::Adaptive;
        // Low SNR: big trees. High SNR: small trees. Same node rate.
        m.observe(0, &exact, 4.0, None, 10_000, 1_000_000);
        m.observe(0, &exact, 20.0, None, 100, 10_000);
        assert!(
            m.predict_ns(0, &exact, 4.0, None, 8, 4)
                > 50.0 * m.predict_ns(0, &exact, 20.0, None, 8, 4)
        );
        assert!((m.ns_per_node() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_converges_toward_new_regime() {
        let m = CostModel::new(1);
        m.observe(0, &TierCostClass::Adaptive, 8.0, None, 1_000, 100_000);
        for _ in 0..50 {
            m.observe(0, &TierCostClass::Adaptive, 8.0, None, 3_000, 300_000);
        }
        let nodes = m.predicted_nodes(0, 8.0, None);
        assert!(nodes > 2_900.0 && nodes <= 3_000.0, "nodes = {nodes}");
    }

    #[test]
    fn fixed_observation_does_not_bias_adaptive_curve() {
        let m = CostModel::new(2);
        let kb = TierCostClass::fixed_kbest(8);
        m.observe(1, &kb, 8.0, None, 500, 50_000);
        assert_eq!(
            m.predicted_nodes(0, 8.0, None),
            0.0,
            "exact curve untouched"
        );
        assert_eq!(
            m.predicted_nodes(1, 8.0, None),
            0.0,
            "only node rate learned"
        );
        assert!(m.ns_per_node() > 0.0);
    }

    #[test]
    fn linear_tier_predicts_its_own_service_time() {
        let m = CostModel::new(1);
        let lin = TierCostClass::Linear;
        m.observe(0, &lin, 8.0, None, 0, 40_000);
        assert_eq!(m.tier_service_ns(0), 40_000.0);
        assert_eq!(m.predict_ns(0, &lin, 8.0, None, 8, 4), 40_000.0);
        assert_eq!(m.ns_per_node(), 0.0, "no tree, no node rate");
    }

    /// Regression: a legitimate 0-ns observation (coarse clock, sub-tick
    /// decode) is a *sample*, not "unsampled". With the old `old == 0.0`
    /// sentinel the second observation re-adopted wholesale (predicting
    /// 50 000 here) instead of blending through the EWMA.
    #[test]
    fn zero_valued_observation_is_a_real_sample() {
        let m = CostModel::new(1);
        let lin = TierCostClass::Linear;
        m.observe(0, &lin, 8.0, None, 0, 0);
        m.observe(0, &lin, 8.0, None, 0, 50_000);
        let got = m.tier_service_ns(0);
        let want = ALPHA * 50_000.0;
        assert!(
            (got - want).abs() < 1e-9,
            "0-ns sample must seed the EWMA (want {want}, got {got})"
        );
    }

    /// Non-finite samples must bounce off a cell without corrupting it.
    #[test]
    fn non_finite_samples_are_discarded() {
        let cell = AtomicU64::new(UNSAMPLED);
        ewma_update(&cell, f64::NAN);
        ewma_update(&cell, f64::INFINITY);
        assert!(!is_sampled(&cell), "garbage must not count as a sample");
        ewma_update(&cell, 7.0);
        ewma_update(&cell, f64::NEG_INFINITY);
        assert_eq!(load_sample(&cell), 7.0, "garbage must not move a sample");
    }

    /// Regression: `bucket` is total (NaN → 0 without UB-adjacent casts),
    /// and a NaN-SNR observation must not train the lowest-SNR curve —
    /// before the guard it landed in bucket 0 and poisoned it.
    #[test]
    fn nan_snr_cannot_poison_the_low_snr_curve() {
        assert_eq!(bucket(f64::NAN), 0);
        assert_eq!(bucket(f64::INFINITY), N_SNR_BUCKETS - 1);
        assert_eq!(bucket(f64::NEG_INFINITY), 0);
        let m = CostModel::new(1);
        m.observe(
            0,
            &TierCostClass::Adaptive,
            f64::NAN,
            None,
            1_000_000,
            1_000,
        );
        assert_eq!(
            m.predicted_nodes(0, 0.0, None),
            0.0,
            "NaN-SNR observation must not write any SNR bucket"
        );
        assert!(m.ns_per_node() > 0.0, "the node rate is still SNR-free");
    }

    #[test]
    fn condition_buckets_cover_the_proxy_range() {
        assert_eq!(cond_bucket(0.0), 0);
        assert_eq!(cond_bucket(0.99), 0);
        assert_eq!(cond_bucket(1.0), 1);
        assert_eq!(cond_bucket(3.0), 2);
        assert_eq!(cond_bucket(60.0), N_COND_BUCKETS - 1);
        assert_eq!(cond_bucket(f64::NAN), N_COND_BUCKETS - 1);
        assert_eq!(cond_bucket(f64::INFINITY), N_COND_BUCKETS - 1);
    }

    /// The conditioned curve separates channel quality at one SNR, and
    /// prediction falls back to the SNR marginal when the (SNR, condition)
    /// cell is cold.
    #[test]
    fn conditioned_cells_separate_channel_quality() {
        let m = CostModel::new(1);
        let exact = TierCostClass::Adaptive;
        // Same SNR, two channel regimes: benign vs near-singular.
        m.observe(0, &exact, 8.0, Some(0.5), 200, 20_000);
        m.observe(0, &exact, 8.0, Some(6.0), 20_000, 2_000_000);
        let benign = m.predicted_nodes(0, 8.0, Some(0.5));
        let skewed = m.predicted_nodes(0, 8.0, Some(6.0));
        assert!(
            skewed > 50.0 * benign,
            "conditioning must separate: benign {benign}, skewed {skewed}"
        );
        // A cold conditioned cell falls back to the SNR marginal, which
        // blends both regimes.
        let marginal = m.predicted_nodes(0, 8.0, None);
        assert_eq!(m.predicted_nodes(0, 8.0, Some(2.0)), marginal);
        assert_eq!(m.predicted_nodes(0, 8.0, None), marginal);
    }
}
