//! The detector abstraction shared by every decoding scheme.
//!
//! All decoders — linear (ZF/MMSE/MRC), exhaustive ML, and every sphere-
//! decoder variant — implement [`Detector`], so the Monte-Carlo harness,
//! the FPGA pipeline simulator, and the benchmark suite drive them
//! uniformly and can compare accuracy, node counts and arithmetic cost on
//! identical frames.

use sd_wireless::FrameData;
use serde::{Deserialize, Serialize};

/// Whether a decode ran the search to completion, or was cut short by a
/// [`DecodeBudget`](crate::engine::DecodeBudget) or by an input its
/// search cannot finish on.
///
/// `Exact` is the normal case and means the returned decision is whatever
/// the engine's unbudgeted contract promises (ML-exact for the sphere
/// decoders). `BudgetTruncated` means the engine returned a fallback
/// instead: the best-so-far leaf of a search that stopped early, the
/// greedy leaf of a sphere search that no radius can make capture a leaf
/// (every metric NaN), or the sliced matched filter of an MMSE system
/// that cannot be solved. It is still a complete symbol vector, but
/// possibly not the minimum-metric one. Downstream consumers (the serve
/// ladder, BER accounting) treat a truncated decision exactly like a
/// served decision from an approximate tier — usable, counted, and
/// flagged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchQuality {
    /// The search ran to its natural completion.
    #[default]
    Exact,
    /// The search hit its [`DecodeBudget`](crate::engine::DecodeBudget)
    /// and returned the best leaf found so far, or could not finish on
    /// its input and returned a complete fallback decision.
    BudgetTruncated {
        /// Nodes generated when the search stopped (the spend the serve
        /// layer charges against its prediction); 0 for MMSE.
        nodes_spent: u64,
    },
}

impl SearchQuality {
    /// `true` when the decode was cut short by a budget.
    pub fn is_truncated(&self) -> bool {
        matches!(self, SearchQuality::BudgetTruncated { .. })
    }

    /// Combine qualities when merging per-worker or per-batch stats:
    /// truncation anywhere taints the aggregate, spends add up.
    pub fn merge(self, other: SearchQuality) -> SearchQuality {
        match (self, other) {
            (SearchQuality::Exact, q) | (q, SearchQuality::Exact) => q,
            (
                SearchQuality::BudgetTruncated { nodes_spent: a },
                SearchQuality::BudgetTruncated { nodes_spent: b },
            ) => SearchQuality::BudgetTruncated { nodes_spent: a + b },
        }
    }
}

/// Per-decode instrumentation.
///
/// Sphere-decoder variants fill the tree-search fields; linear detectors
/// only report flops. The counters are the quantities the paper argues
/// with: explored-node counts (the "<1 % of the search space" claim of
/// Sec. IV-F) and GEMM volume (the compute-bound refactoring).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectionStats {
    /// Nodes popped from the active list and branched (Algorithm 1 line 3).
    pub nodes_expanded: u64,
    /// Children generated and evaluated (line 4–6).
    pub nodes_generated: u64,
    /// Children discarded because their PD exceeded the radius (line 14).
    pub nodes_pruned: u64,
    /// Leaf nodes reached (line 7).
    pub leaves_reached: u64,
    /// Sphere-radius updates performed at leaves (line 8).
    pub radius_updates: u64,
    /// Real floating-point operations spent in GEMM/PD evaluation.
    pub flops: u64,
    /// Children generated per tree level (index 0 = first branching level,
    /// i.e. the last transmit antenna).
    pub per_level_generated: Vec<u64>,
    /// Final squared sphere radius (the returned solution's metric).
    pub final_radius_sqr: f64,
    /// Number of search restarts after an empty sphere (finite initial
    /// radius only).
    pub restarts: u64,
    /// Whether the search completed or was cut short by a
    /// [`DecodeBudget`](crate::engine::DecodeBudget).
    #[serde(default)]
    pub quality: SearchQuality,
}

impl DetectionStats {
    /// Merge counters (used when aggregating batches or parallel PEs).
    pub fn merge(&mut self, other: &DetectionStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.nodes_generated += other.nodes_generated;
        self.nodes_pruned += other.nodes_pruned;
        self.leaves_reached += other.leaves_reached;
        self.radius_updates += other.radius_updates;
        self.flops += other.flops;
        self.restarts += other.restarts;
        if self.per_level_generated.len() < other.per_level_generated.len() {
            self.per_level_generated
                .resize(other.per_level_generated.len(), 0);
        }
        for (a, b) in self
            .per_level_generated
            .iter_mut()
            .zip(other.per_level_generated.iter())
        {
            *a += b;
        }
        self.final_radius_sqr = self.final_radius_sqr.max(other.final_radius_sqr);
        self.quality = self.quality.merge(other.quality);
    }

    /// Merge an iterator of stats into one aggregate — the cheap way to
    /// fold a whole batch (`detections.iter().map(|d| &d.stats)`) without
    /// hand-summing individual counters.
    pub fn accumulate<'a, I: IntoIterator<Item = &'a DetectionStats>>(stats: I) -> DetectionStats {
        let mut acc = DetectionStats::default();
        for s in stats {
            acc.merge(s);
        }
        acc
    }

    /// Zero every counter and (re)size the per-level histogram to
    /// `n_levels` without giving up its capacity. Decoders use this to
    /// write stats into a caller-owned struct allocation-free.
    pub fn reset(&mut self, n_levels: usize) {
        self.nodes_expanded = 0;
        self.nodes_generated = 0;
        self.nodes_pruned = 0;
        self.leaves_reached = 0;
        self.radius_updates = 0;
        self.flops = 0;
        self.per_level_generated.clear();
        self.per_level_generated.resize(n_levels, 0);
        self.final_radius_sqr = 0.0;
        self.restarts = 0;
        self.quality = SearchQuality::Exact;
    }

    /// Fraction of a full `P^M` enumeration this search visited.
    pub fn explored_fraction(&self, order: usize, n_tx: usize) -> f64 {
        let total = (order as f64).powi(n_tx as i32);
        self.nodes_generated as f64 / total
    }
}

impl<'a> std::iter::Sum<&'a DetectionStats> for DetectionStats {
    fn sum<I: Iterator<Item = &'a DetectionStats>>(iter: I) -> Self {
        DetectionStats::accumulate(iter)
    }
}

impl std::iter::Sum for DetectionStats {
    fn sum<I: Iterator<Item = DetectionStats>>(iter: I) -> Self {
        let mut acc = DetectionStats::default();
        for s in iter {
            acc.merge(&s);
        }
        acc
    }
}

/// Result of one decode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Detection {
    /// Constellation point index per transmit antenna (the decoded `ŝ`).
    pub indices: Vec<usize>,
    /// Search / arithmetic instrumentation.
    pub stats: DetectionStats,
}

/// A MIMO detector: maps one received frame to symbol decisions.
pub trait Detector: Send + Sync {
    /// Human-readable name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Decode one frame. Implementations must not read
    /// [`FrameData::tx`] (the ground truth).
    fn detect(&self, frame: &FrameData) -> Detection;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_counters() {
        let mut a = DetectionStats {
            nodes_expanded: 10,
            nodes_generated: 40,
            nodes_pruned: 5,
            leaves_reached: 2,
            radius_updates: 1,
            flops: 1000,
            per_level_generated: vec![4, 16],
            final_radius_sqr: 1.5,
            restarts: 0,
            quality: SearchQuality::Exact,
        };
        let b = DetectionStats {
            nodes_expanded: 1,
            nodes_generated: 4,
            nodes_pruned: 0,
            leaves_reached: 1,
            radius_updates: 1,
            flops: 100,
            per_level_generated: vec![4, 0, 8],
            final_radius_sqr: 0.5,
            restarts: 2,
            quality: SearchQuality::Exact,
        };
        a.merge(&b);
        assert_eq!(a.nodes_expanded, 11);
        assert_eq!(a.nodes_generated, 44);
        assert_eq!(a.per_level_generated, vec![8, 16, 8]);
        assert_eq!(a.final_radius_sqr, 1.5);
        assert_eq!(a.restarts, 2);
    }

    #[test]
    fn accumulate_and_sum_match_pairwise_merge() {
        let a = DetectionStats {
            nodes_expanded: 3,
            nodes_generated: 12,
            flops: 7,
            per_level_generated: vec![4, 8],
            final_radius_sqr: 2.0,
            ..Default::default()
        };
        let b = DetectionStats {
            nodes_expanded: 2,
            nodes_generated: 8,
            flops: 5,
            per_level_generated: vec![8],
            restarts: 1,
            ..Default::default()
        };
        let mut manual = DetectionStats::default();
        manual.merge(&a);
        manual.merge(&b);
        let acc = DetectionStats::accumulate([&a, &b]);
        assert_eq!(acc, manual);
        let summed: DetectionStats = [&a, &b].into_iter().sum();
        assert_eq!(summed, manual);
        let owned: DetectionStats = vec![a.clone(), b].into_iter().sum();
        assert_eq!(owned, manual);
    }

    #[test]
    fn reset_keeps_histogram_capacity() {
        let mut s = DetectionStats {
            nodes_expanded: 9,
            per_level_generated: vec![1, 2, 3, 4],
            final_radius_sqr: 5.0,
            ..Default::default()
        };
        let cap = s.per_level_generated.capacity();
        s.reset(3);
        assert_eq!(s.nodes_expanded, 0);
        assert_eq!(s.final_radius_sqr, 0.0);
        assert_eq!(s.per_level_generated, vec![0; 3]);
        assert_eq!(
            s.per_level_generated.capacity(),
            cap,
            "reset must not shrink"
        );
    }

    #[test]
    fn quality_merge_is_truncation_dominant() {
        let e = SearchQuality::Exact;
        let t3 = SearchQuality::BudgetTruncated { nodes_spent: 3 };
        let t5 = SearchQuality::BudgetTruncated { nodes_spent: 5 };
        assert_eq!(e.merge(e), SearchQuality::Exact);
        assert_eq!(e.merge(t3), t3);
        assert_eq!(t3.merge(e), t3);
        assert_eq!(
            t3.merge(t5),
            SearchQuality::BudgetTruncated { nodes_spent: 8 }
        );
        assert!(!e.is_truncated());
        assert!(t3.is_truncated());
    }

    #[test]
    fn merge_and_reset_carry_quality() {
        let mut a = DetectionStats::default();
        let b = DetectionStats {
            quality: SearchQuality::BudgetTruncated { nodes_spent: 7 },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.quality, SearchQuality::BudgetTruncated { nodes_spent: 7 });
        a.reset(2);
        assert_eq!(a.quality, SearchQuality::Exact);
    }

    #[test]
    fn explored_fraction() {
        let stats = DetectionStats {
            nodes_generated: 100,
            ..Default::default()
        };
        // 4-QAM, 10 antennas: 4^10 ≈ 1.05e6.
        let f = stats.explored_fraction(4, 10);
        assert!((f - 100.0 / 4f64.powi(10)).abs() < 1e-15);
        assert!(f < 0.01, "100 nodes must be <1% of the space");
    }
}
