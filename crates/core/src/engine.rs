//! The prepared-decode engine trait every detector implements.
//!
//! One abstraction replaces the per-file wrapper zoo: a detector supplies
//! a single scratch-reusing entry point ([`PreparedDetector::detect_prepared_into`])
//! plus a handful of small policy hooks (constellation, column ordering,
//! initial radius, custom preprocessing), and the trait derives every
//! convenience from them — the allocating one-shot decode, the workspace
//! variant, and the frame-level entry points that the
//! [`Detector`](crate::detector::Detector) /
//! [`WorkspaceDetector`](crate::batch::WorkspaceDetector) bridges forward
//! to. Higher layers (the serve tier registry, batch drivers, benches)
//! program against this trait and treat every member of the detector zoo
//! interchangeably.
//!
//! The contract mirrors the serving runtime's steady-state discipline:
//! `detect_prepared_into` must draw all search buffers from the passed
//! [`SearchWorkspace`] and write into the recycled [`Detection`], so a
//! caller that reuses `prep`/`ws`/`out` decodes without per-request heap
//! allocation (asserted by `tests/alloc_free.rs` for the tree decoders).

use crate::arena::SearchWorkspace;
use crate::block::decode_prepared_loop;
use crate::detector::Detection;
use crate::preprocess::{
    preprocess_ordered_into, BlockPrep, ColumnOrdering, PrepScratch, Prepared,
};
use sd_math::Float;
use sd_wireless::{Constellation, FrameData};
use std::time::Instant;

/// An anytime-decoding budget: how much search a decode is allowed to
/// spend before returning the best-so-far leaf.
///
/// A budget never *changes* the search — it only stops it. An engine
/// running under a budget expands nodes in exactly the order it would
/// without one, so whenever the budget is not hit the output (indices,
/// stats, metric bits) is bit-identical to the unbudgeted decode and
/// [`SearchQuality::Exact`](crate::detector::SearchQuality) is reported.
/// When the budget trips, the engine stops descending, completes any
/// partial path greedily if no leaf has been reached yet, and flags the
/// result [`SearchQuality::BudgetTruncated`](crate::detector::SearchQuality).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecodeBudget {
    /// Maximum nodes the search may generate before truncating.
    /// `u64::MAX` means unlimited.
    pub max_nodes: u64,
    /// Wall-clock cutoff; checked coarsely (every few hundred nodes), so
    /// it is a deadline *guard*, not a precise timer. `None` means no
    /// deadline.
    pub deadline: Option<Instant>,
}

impl DecodeBudget {
    /// The no-op budget: unlimited nodes, no deadline. Decoding under it
    /// is bit-identical to not passing a budget at all.
    pub const UNLIMITED: DecodeBudget = DecodeBudget {
        max_nodes: u64::MAX,
        deadline: None,
    };

    /// A pure node-count budget.
    pub fn nodes(max_nodes: u64) -> Self {
        DecodeBudget {
            max_nodes,
            deadline: None,
        }
    }

    /// `true` when this budget can never trip.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes == u64::MAX && self.deadline.is_none()
    }

    /// Whether a search that has generated `nodes_generated` nodes must
    /// stop now: the node cap is spent or the deadline has passed. The
    /// level-synchronous engines call this once per tree level (their
    /// deadline granularity), the depth-first ones every few dozen nodes.
    pub fn tripped_after(&self, nodes_generated: u64) -> bool {
        if self.is_unlimited() {
            return false;
        }
        nodes_generated >= self.max_nodes || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for DecodeBudget {
    fn default() -> Self {
        DecodeBudget::UNLIMITED
    }
}

/// A detector that decodes a QR-[`Prepared`] problem into caller-owned
/// buffers.
///
/// Required: [`Self::detect_prepared_into`] and [`Self::constellation`].
/// Everything else has a default that matches the common tree-decoder
/// shape (natural ordering, infinite initial radius, shared QR
/// preprocessing); detectors with different needs override the hooks —
/// e.g. the linear family replaces [`Self::prepare_frame_into`] with a
/// QR-free frame load, and the real-valued decomposition builds its
/// doubled real system there.
pub trait PreparedDetector<F: Float>: Send + Sync {
    /// Decode a prepared problem, drawing every search buffer from `ws`
    /// and writing the decision + statistics into `out` (which is fully
    /// overwritten). `radius_sqr` is the initial squared sphere radius;
    /// detectors without a radius notion ignore it.
    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    );

    /// The constellation this detector decides over.
    fn constellation(&self) -> &Constellation;

    /// Budget-bounded (anytime) decode: like [`Self::detect_prepared_into`]
    /// but allowed to stop early when `budget` trips, returning the
    /// best-so-far leaf with
    /// [`SearchQuality::BudgetTruncated`](crate::detector::SearchQuality)
    /// set in the stats. The default ignores the budget and runs the full
    /// decode — correct only for engines whose cost is a small constant
    /// (the linear family); every tree search (DFS, subtree-parallel,
    /// best-first, BFS, and K-best and FSD in float and fixed point)
    /// overrides it with a real budget check. Whenever the budget is not
    /// hit the output must be bit-identical to
    /// [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        _budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.detect_prepared_into(prep, radius_sqr, ws, out);
    }

    /// Decode a prepared coherence block, writing subcarrier `k`'s
    /// decision into `out[k]`, and return whether the engine **fused** it:
    /// ran ONE level-synchronous search over the whole block, stacking all
    /// subcarriers' frontiers into one GEMM operand per tree level. The
    /// default runs the per-subcarrier loop — one
    /// [`Self::detect_prepared_budgeted_into`] per subcarrier, moving
    /// `prep` with [`BlockPrep::fill_prepared`] — and returns `false`;
    /// fusing engines run that loop too while a trace sink is installed
    /// (per-decode event streams need it).
    ///
    /// Contract for engines that fuse: per-subcarrier results (indices,
    /// stats, metric bits) must be **bit-identical** to the loop — fusion
    /// is a scheduling change, never a numeric one. Only level-synchronous
    /// engines whose per-level frontier size is data-independent (K-best,
    /// fixed-complexity FSD) can honor that contract; data-dependent
    /// searches keep the default. `prep` arrives as the block preparation
    /// left it — subcarrier 0's problem, carrying the shared `R`,
    /// permutation and points — and a fused engine reads per-subcarrier
    /// `ȳ` straight off `block`. `frames[k]` must be the subcarrier the
    /// block was prepared from.
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<F>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<F>,
        ws: &mut SearchWorkspace<F>,
        out: &mut [Detection],
    ) -> bool {
        decode_prepared_loop(self, block, frames, budget, prep, ws, out);
        false
    }

    /// Column ordering applied before QR (policy hook for
    /// [`Self::prepare_frame_into`]'s default).
    fn ordering(&self) -> ColumnOrdering {
        ColumnOrdering::Natural
    }

    /// Initial squared sphere radius for a frame with `n_rx` receive
    /// antennas at noise variance `σ²`. Defaults to an infinite sphere.
    fn initial_radius_sqr(&self, _n_rx: usize, _noise_variance: f64) -> f64 {
        f64::INFINITY
    }

    /// Whether this detector's [`Self::prepare_frame_into`] is exactly
    /// the shared QR preprocessing under [`Self::ordering`] — i.e. its
    /// prepared state splits into a channel-only half (QR factors,
    /// ordering) and a per-request half (`ȳ = Qᴴy`), so a serving layer
    /// may cache the channel half across requests that share `H`
    /// ([`prepare_with_channel_into`](crate::preprocess::prepare_with_channel_into)).
    /// Detectors that override [`Self::prepare_frame_into`] (the linear
    /// family, the real-valued decomposition) keep the default `false`.
    fn channel_cacheable(&self) -> bool {
        false
    }

    /// Turn a frame into this detector's prepared problem, reusing
    /// `scratch` and `prep`. Defaults to the shared QR preprocessing
    /// under [`Self::ordering`]; allocation-free at steady state.
    fn prepare_frame_into(
        &self,
        frame: &FrameData,
        scratch: &mut PrepScratch<F>,
        prep: &mut Prepared<F>,
    ) {
        preprocess_ordered_into(frame, self.constellation(), self.ordering(), scratch, prep);
    }

    /// Allocating convenience: prepare a frame into a fresh [`Prepared`].
    fn prepare_frame(&self, frame: &FrameData) -> Prepared<F> {
        let mut scratch = PrepScratch::new();
        let mut prep = Prepared::empty();
        self.prepare_frame_into(frame, &mut scratch, &mut prep);
        prep
    }

    /// Decode a prepared problem into a fresh [`Detection`], reusing the
    /// caller's workspace.
    fn detect_prepared_in(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
    ) -> Detection {
        let mut out = Detection::default();
        self.detect_prepared_into(prep, radius_sqr, ws, &mut out);
        out
    }

    /// Allocating convenience: decode a prepared problem with a
    /// throwaway workspace. The one place a temporary
    /// [`SearchWorkspace`] is ever spun up on a decode path.
    fn detect_prepared(&self, prep: &Prepared<F>, radius_sqr: f64) -> Detection {
        let mut ws = SearchWorkspace::new();
        self.detect_prepared_in(prep, radius_sqr, &mut ws)
    }

    /// Frame-level decode reusing the caller's workspace: prepare (fresh
    /// buffers), resolve the initial radius, decode. What the
    /// [`WorkspaceDetector`](crate::batch::WorkspaceDetector) bridge
    /// forwards to.
    ///
    /// When a [`TraceSink`](crate::trace::TraceSink) is installed on `ws`
    /// the preprocessing time is reported as
    /// [`Phase::Prepare`](crate::trace::Phase) — emitted after the decode
    /// so it survives the sink's per-decode reset.
    fn detect_frame_in(&self, frame: &FrameData, ws: &mut SearchWorkspace<F>) -> Detection {
        let t0 = crate::trace::span_clock(ws.trace.is_some());
        let prep = self.prepare_frame(frame);
        let prep_ns = crate::trace::span_ns(t0);
        let radius_sqr = self.initial_radius_sqr(frame.h.rows(), frame.noise_variance);
        let out = self.detect_prepared_in(&prep, radius_sqr, ws);
        if let Some(t) = ws.trace.as_deref_mut() {
            t.on_phase(crate::trace::Phase::Prepare, prep_ns);
        }
        out
    }

    /// Frame-level one-shot decode. What the [`Detector`](crate::detector::Detector)
    /// bridge forwards to.
    fn detect_frame(&self, frame: &FrameData) -> Detection {
        let mut ws = SearchWorkspace::new();
        self.detect_frame_in(frame, &mut ws)
    }
}

/// Generate the [`Detector`](crate::detector::Detector) and
/// [`WorkspaceDetector`](crate::batch::WorkspaceDetector) bridge impls
/// for a [`PreparedDetector`], forwarding `detect` / `detect_in` to the
/// engine trait's frame-level entry points.
///
/// A blanket `impl<F, T: PreparedDetector<F>> Detector for T` is
/// impossible (`F` would be unconstrained), so each detector invokes this
/// once with its display name. Two arms: types generic over the working
/// precision `F`, and concrete `f64`-only types (the linear family).
macro_rules! impl_detector_via_prepared {
    ($ty:ident <F>, $name:literal) => {
        impl<F: sd_math::Float> $crate::detector::Detector for $ty<F> {
            fn name(&self) -> &'static str {
                $name
            }

            fn detect(&self, frame: &sd_wireless::FrameData) -> $crate::detector::Detection {
                $crate::engine::PreparedDetector::detect_frame(self, frame)
            }
        }

        impl<F: sd_math::Float> $crate::batch::WorkspaceDetector<F> for $ty<F> {
            fn detect_in(
                &self,
                frame: &sd_wireless::FrameData,
                ws: &mut $crate::arena::SearchWorkspace<F>,
            ) -> $crate::detector::Detection {
                $crate::engine::PreparedDetector::detect_frame_in(self, frame, ws)
            }
        }
    };
    ($ty:ty, $name:literal) => {
        impl $crate::detector::Detector for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn detect(&self, frame: &sd_wireless::FrameData) -> $crate::detector::Detection {
                $crate::engine::PreparedDetector::detect_frame(self, frame)
            }
        }

        impl $crate::batch::WorkspaceDetector<f64> for $ty {
            fn detect_in(
                &self,
                frame: &sd_wireless::FrameData,
                ws: &mut $crate::arena::SearchWorkspace<f64>,
            ) -> $crate::detector::Detection {
                $crate::engine::PreparedDetector::detect_frame_in(self, frame, ws)
            }
        }
    };
}

pub(crate) use impl_detector_via_prepared;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BestFirstSd, Detector, KBestSd, SphereDecoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, Modulation};

    fn frames(count: usize) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(Modulation::Qam4);
        let sigma2 = noise_variance(10.0, 6);
        let mut rng = StdRng::seed_from_u64(0xE2617E);
        let f = (0..count)
            .map(|_| FrameData::generate(6, 6, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    /// Every derived convenience must agree with the required `_into`
    /// entry point bit-for-bit, across detectors with different hook
    /// overrides.
    #[test]
    fn derived_entry_points_agree_with_detect_prepared_into() {
        let (c, frames) = frames(8);
        let dets: Vec<Box<dyn PreparedDetector<f64>>> = vec![
            Box::new(SphereDecoder::new(c.clone())),
            Box::new(BestFirstSd::new(c.clone())),
            Box::new(KBestSd::new(c.clone(), 8)),
        ];
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        for det in &dets {
            for f in &frames {
                let mut scratch = PrepScratch::new();
                let mut prep = Prepared::empty();
                det.prepare_frame_into(f, &mut scratch, &mut prep);
                let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
                det.detect_prepared_into(&prep, r2, &mut ws, &mut out);

                assert_eq!(det.detect_prepared_in(&prep, r2, &mut ws), out);
                assert_eq!(det.detect_prepared(&prep, r2), out);
                assert_eq!(det.detect_frame_in(f, &mut ws), out);
                assert_eq!(det.detect_frame(f), out);
            }
        }
    }

    /// The default budgeted entry point must be the plain decode,
    /// bit-for-bit, for every engine that does not override it. (K-best
    /// used to sit here; it now honors budgets and is covered by its own
    /// truncation tests instead.)
    #[test]
    fn default_budgeted_decode_is_the_plain_decode() {
        let (c, frames) = frames(4);
        let dets: Vec<Box<dyn PreparedDetector<f64>>> = vec![Box::new(BestFirstSd::new(c.clone()))];
        let mut ws = SearchWorkspace::new();
        let mut plain = Detection::default();
        let mut budgeted = Detection::default();
        for det in &dets {
            for f in &frames {
                let prep = det.prepare_frame(f);
                let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
                det.detect_prepared_into(&prep, r2, &mut ws, &mut plain);
                det.detect_prepared_budgeted_into(
                    &prep,
                    r2,
                    &DecodeBudget::nodes(1),
                    &mut ws,
                    &mut budgeted,
                );
                assert_eq!(budgeted, plain, "default impl must ignore the budget");
                assert!(!budgeted.stats.quality.is_truncated());
            }
        }
    }

    #[test]
    fn unlimited_budget_reports_itself() {
        assert!(DecodeBudget::UNLIMITED.is_unlimited());
        assert!(DecodeBudget::default().is_unlimited());
        assert!(!DecodeBudget::nodes(100).is_unlimited());
        let with_deadline = DecodeBudget {
            max_nodes: u64::MAX,
            deadline: Some(Instant::now()),
        };
        assert!(!with_deadline.is_unlimited());
    }

    /// The `Detector` bridge is the engine's frame-level decode.
    #[test]
    fn detector_bridge_matches_engine() {
        let (c, frames) = frames(4);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            assert_eq!(sd.detect(f), PreparedDetector::detect_frame(&sd, f));
        }
    }

    /// Trait objects decode through the dynamic dispatch path the serve
    /// tier registry uses.
    #[test]
    fn dyn_prepared_detector_is_object_safe_and_decodes() {
        let (c, frames) = frames(2);
        let det: Box<dyn PreparedDetector<f64>> = Box::new(SphereDecoder::new(c));
        let mut ws = SearchWorkspace::new();
        for f in &frames {
            let d = det.detect_frame_in(f, &mut ws);
            assert_eq!(d.indices.len(), 6);
        }
    }
}
