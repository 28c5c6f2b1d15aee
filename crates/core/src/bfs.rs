//! Level-synchronous BFS-GEMM sphere decoding — the GPU baseline of \[1\].
//!
//! All nodes of a tree level are expanded together and their children
//! evaluated in one large GEMM against the level's tree-state matrix; the
//! radius is *not* tightened until the leaf level (BFS reaches no leaf
//! earlier), so pruning only uses the initial radius. This exposes maximal
//! data parallelism — ideal for a GPU — but explores orders of magnitude
//! more nodes than the leaf-biased DFS (the effect behind the paper's
//! Fig. 11 and the "<1 %" claim of Sec. IV-F).
//!
//! The "one GEMM per level" is literal here: the frontier lives in the
//! [`crate::arena`] slab as `(pd, id)` pairs and
//! [`crate::pd::eval_children_batch`] packs every open node's tree state
//! into a single `(depth+1) × (B·P)` operand per level (chunked at
//! [`crate::pd::MAX_BATCH`]), evaluated by one [`sd_math`] kernel call.
//! The kernel is selectable ([`BfsGemmSd::with_batch_algo`]) and the
//! resulting increments are bit-identical to per-node evaluation, so the
//! decoded symbols and every statistic match the scalar formulation
//! exactly.
//!
//! The decoder records a [`BfsLevelTrace`] of per-level frontier sizes and
//! GEMM shapes; the `sd-gpu` crate charges an A100 cost model over that
//! trace.

use crate::arena::{SearchWorkspace, NIL};
use crate::detector::{Detection, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_children_batch, greedy_tail, EvalStrategy};
use crate::preprocess::Prepared;
use crate::radius::InitialRadius;
use crate::select::keep_best;
use crate::trace::{span_clock, span_ns, Phase, TraceSink};
use sd_math::{Float, GemmAlgo};
use sd_wireless::{Constellation, FrameData};
use serde::{Deserialize, Serialize};

/// Per-level record of one BFS decode.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BfsLevelInfo {
    /// Nodes entering the level (parents expanded).
    pub frontier_in: usize,
    /// Children generated (`frontier_in × P`).
    pub children: usize,
    /// Children surviving the radius test.
    pub survivors: usize,
    /// GEMM shape (m, k, n) evaluated at this level:
    /// `1 × (depth+1) × children`.
    pub gemm_shape: (usize, usize, usize),
}

/// Execution trace used by the GPU cost model.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BfsLevelTrace {
    /// One entry per tree level, in expansion order.
    pub levels: Vec<BfsLevelInfo>,
    /// Radius restarts performed.
    pub restarts: u64,
    /// `true` if the frontier cap truncated the search (makes the decode
    /// approximate, mirroring GPU memory limits).
    pub clipped: bool,
}

/// Breadth-first GEMM sphere decoder.
#[derive(Clone, Debug)]
pub struct BfsGemmSd<F: Float = f64> {
    constellation: Constellation,
    /// Initial radius (BFS cannot start from infinity — it would
    /// enumerate the full tree).
    pub initial_radius: InitialRadius,
    /// Hard cap on the surviving frontier per level; beyond it only the
    /// best nodes are kept (GPU memory limit surrogate).
    pub max_frontier: usize,
    /// Kernel driving the per-level batched GEMM.
    pub batch_algo: GemmAlgo,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> BfsGemmSd<F> {
    /// BFS decoder with the customary `r² = 2·N·σ²` initial sphere.
    pub fn new(constellation: Constellation) -> Self {
        BfsGemmSd {
            constellation,
            initial_radius: InitialRadius::ScaledNoise(2.0),
            max_frontier: 1 << 20,
            batch_algo: GemmAlgo::Blocked,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: initial radius policy.
    pub fn with_initial_radius(mut self, r: InitialRadius) -> Self {
        assert!(
            !matches!(r, InitialRadius::Infinite),
            "BFS requires a finite initial radius"
        );
        self.initial_radius = r;
        self
    }

    /// Builder: frontier cap.
    pub fn with_max_frontier(mut self, cap: usize) -> Self {
        assert!(cap > 0);
        self.max_frontier = cap;
        self
    }

    /// Builder: batched-GEMM kernel ([`GemmAlgo::Blocked`] serial or
    /// [`GemmAlgo::Parallel`] for wide frontiers; every kernel yields
    /// bit-identical increments).
    pub fn with_batch_algo(mut self, algo: GemmAlgo) -> Self {
        self.batch_algo = algo;
        self
    }

    /// Decode and return the per-level trace alongside the detection.
    pub fn detect_traced(&self, frame: &FrameData) -> (Detection, BfsLevelTrace) {
        let prep: Prepared<F> = self.prepare_frame(frame);
        let r2 = self
            .initial_radius
            .resolve(frame.h.rows(), frame.noise_variance);
        self.detect_prepared_traced(&prep, r2)
    }

    /// Decode an already-preprocessed problem, returning the trace.
    pub fn detect_prepared_traced(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
    ) -> (Detection, BfsLevelTrace) {
        let mut ws = SearchWorkspace::new();
        self.detect_prepared_traced_in(prep, radius_sqr, &mut ws)
    }

    /// [`BfsGemmSd::detect_prepared_traced`] reusing a caller-owned
    /// workspace; the level loop performs no heap allocation once the
    /// buffers reach steady-state capacity.
    pub fn detect_prepared_traced_in(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
    ) -> (Detection, BfsLevelTrace) {
        let mut out = Detection::default();
        let mut adapter = BfsTraceAdapter::default();
        self.bfs_core(
            prep,
            radius_sqr,
            &DecodeBudget::UNLIMITED,
            ws,
            &mut out,
            Some(&mut adapter),
        );
        (out, adapter.trace)
    }

    /// The level-synchronous sweep shared by the traced and engine entry
    /// points. `trace` is `None` when no sink is installed, which skips
    /// every emission and keeps the decode allocation-free; the decode
    /// itself is identical either way. The traced APIs pass a
    /// [`BfsTraceAdapter`] that folds the event stream back into a
    /// [`BfsLevelTrace`].
    fn bfs_core(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        out.stats.reset(m);
        if let Some(t) = trace.as_mut() {
            t.on_decode_start(m);
        }
        let stats = &mut out.stats;
        let mut r2 = radius_sqr;

        'restart: loop {
            ws.arena.clear();
            ws.frontier.clear();
            ws.frontier.push((0.0, NIL));
            for depth in 0..m {
                if budget.tripped_after(stats.nodes_generated) {
                    // Budget exhausted: greedily complete the best open
                    // node to a leaf — never restart a truncated search.
                    let spent = stats.nodes_generated;
                    let &(pd, id) = ws
                        .frontier
                        .iter()
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("frontier is never empty");
                    ws.arena.path_into(id, &mut ws.path_buf);
                    let final_pd = greedy_tail(
                        prep,
                        EvalStrategy::Gemm,
                        &mut ws.path_buf,
                        F::from_f64(pd),
                        stats,
                        &mut ws.scratch,
                    );
                    stats.leaves_reached += 1;
                    stats.radius_updates = 1;
                    stats.final_radius_sqr = final_pd.to_f64();
                    stats.flops += prep.prep_flops;
                    stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                    prep.indices_from_path_into(&ws.path_buf, &mut out.indices);
                    return;
                }
                // One batched GEMM for the whole level.
                ws.ids.clear();
                ws.ids.extend(ws.frontier.iter().map(|&(_, id)| id));
                let t0 = span_clock(trace.is_some());
                stats.flops +=
                    eval_children_batch(prep, &ws.arena, &ws.ids, self.batch_algo, &mut ws.scratch);
                if let Some(t) = trace.as_mut() {
                    t.on_phase(Phase::Expand, span_ns(t0));
                    t.on_expand(
                        depth,
                        ws.frontier.len() as u64,
                        (ws.frontier.len() * p) as u64,
                    );
                }
                stats.nodes_expanded += ws.frontier.len() as u64;
                stats.nodes_generated += (ws.frontier.len() * p) as u64;
                stats.per_level_generated[depth] += (ws.frontier.len() * p) as u64;

                ws.next.clear();
                let mut radius_pruned = 0u64;
                for (bi, &(pd, id)) in ws.frontier.iter().enumerate() {
                    for c in 0..p {
                        let child_pd = pd + ws.scratch.batch_increments[bi * p + c].to_f64();
                        if child_pd < r2 {
                            let child = ws.arena.alloc(id, c);
                            ws.next.push((child_pd, child));
                        } else {
                            radius_pruned += 1;
                        }
                    }
                }
                stats.nodes_pruned += radius_pruned;
                if let Some(t) = trace.as_mut() {
                    t.on_prune(depth, radius_pruned);
                }
                if ws.next.is_empty() {
                    // Empty sphere: grow radius and restart the whole BFS.
                    if let Some(t) = trace.as_mut() {
                        t.on_restart();
                    }
                    r2 *= InitialRadius::RESTART_GROWTH;
                    stats.restarts += 1;
                    assert!(stats.restarts < 64, "radius failed to capture any leaf");
                    continue 'restart;
                }
                if ws.next.len() > self.max_frontier {
                    // GPU-memory surrogate: keep the best nodes only —
                    // via partial selection, like the K-best cut.
                    let sorted = ws.next.len();
                    let t0 = span_clock(trace.is_some());
                    keep_best(&mut ws.next, self.max_frontier, |a, b| a.0.total_cmp(&b.0));
                    let dropped = (sorted - self.max_frontier) as u64;
                    stats.nodes_pruned += dropped;
                    if let Some(t) = trace.as_mut() {
                        t.on_phase(Phase::Sort, span_ns(t0));
                        t.on_sort(depth, sorted as u64);
                        t.on_clip(depth, dropped);
                        t.on_prune(depth, dropped);
                    }
                }
                if let Some(t) = trace.as_mut() {
                    t.on_accept(depth, ws.next.len() as u64);
                }
                std::mem::swap(&mut ws.frontier, &mut ws.next);
            }

            // Leaf level: pick the minimum-PD survivor.
            stats.leaves_reached += ws.frontier.len() as u64;
            let t0 = span_clock(trace.is_some());
            let &(best_pd, best_id) = ws
                .frontier
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("non-empty by construction");
            stats.radius_updates += 1;
            stats.final_radius_sqr = best_pd;
            stats.flops += prep.prep_flops;
            ws.arena.path_into(best_id, &mut ws.path_buf);
            if let Some(t) = trace.as_mut() {
                t.on_phase(Phase::Leaf, span_ns(t0));
                t.on_radius_update(m - 1, best_pd);
            }
            prep.indices_from_path_into(&ws.path_buf, &mut out.indices);
            return;
        }
    }
}

/// Folds the generic [`TraceSink`] event stream back into the legacy
/// [`BfsLevelTrace`] record the GPU cost model consumes. `survivors`
/// keeps its historical pre-clip meaning: the accepted count reported
/// after a clip is topped back up with the clipped-off nodes.
#[derive(Debug, Default)]
struct BfsTraceAdapter {
    trace: BfsLevelTrace,
    pending_clip: u64,
}

impl TraceSink for BfsTraceAdapter {
    fn on_decode_start(&mut self, _n_levels: usize) {
        self.trace.levels.clear();
        self.trace.restarts = 0;
        self.trace.clipped = false;
        self.pending_clip = 0;
    }

    fn on_expand(&mut self, level: usize, parents: u64, children: u64) {
        self.trace.levels.push(BfsLevelInfo {
            frontier_in: parents as usize,
            children: children as usize,
            survivors: 0,
            gemm_shape: (1, level + 1, children as usize),
        });
    }

    fn on_accept(&mut self, _level: usize, n: u64) {
        if let Some(last) = self.trace.levels.last_mut() {
            last.survivors = (n + self.pending_clip) as usize;
        }
        self.pending_clip = 0;
    }

    fn on_clip(&mut self, _level: usize, dropped: u64) {
        self.trace.clipped = true;
        self.pending_clip += dropped;
    }

    fn on_restart(&mut self) {
        self.trace.restarts += 1;
        self.trace.levels.clear();
        self.trace.clipped = false;
        self.pending_clip = 0;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl<F: Float> PreparedDetector<F> for BfsGemmSd<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.initial_radius.resolve(n_rx, noise_variance)
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let mut trace = ws.trace.take();
        self.bfs_core(
            prep,
            radius_sqr,
            &DecodeBudget::UNLIMITED,
            ws,
            out,
            trace.as_deref_mut(),
        );
        ws.trace = trace;
    }

    /// BFS under an anytime budget: checked once per level; a trip ends
    /// the sweep with the best open node greedily completed
    /// ([`SearchQuality::BudgetTruncated`]) — a truncated search never
    /// restarts. Untripped decodes are bit-identical to
    /// [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let mut trace = ws.trace.take();
        self.bfs_core(prep, radius_sqr, budget, ws, out, trace.as_deref_mut());
        ws.trace = trace;
    }
}

impl_detector_via_prepared!(BfsGemmSd<F>, "SD BFS-GEMM (GPU baseline)");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::dfs::SphereDecoder;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, Modulation};

    fn frames(
        n: usize,
        m: Modulation,
        snr_db: f64,
        count: usize,
        seed: u64,
    ) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(m);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    #[test]
    fn matches_ml_when_uncapped() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 20, 70);
        let bfs: BfsGemmSd<f64> = BfsGemmSd::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            let (d, trace) = bfs.detect_traced(f);
            assert!(!trace.clipped);
            assert_eq!(d.indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn batch_kernels_agree_exactly() {
        // Blocked and Parallel batched kernels must produce identical
        // decodes *and statistics* (bit-identical increments).
        let (c, frames) = frames(6, Modulation::Qam16, 10.0, 8, 75);
        let blocked: BfsGemmSd<f64> = BfsGemmSd::new(c.clone());
        let parallel: BfsGemmSd<f64> =
            BfsGemmSd::new(c.clone()).with_batch_algo(GemmAlgo::Parallel);
        let naive: BfsGemmSd<f64> = BfsGemmSd::new(c).with_batch_algo(GemmAlgo::Naive);
        for f in &frames {
            let a = blocked.detect(f);
            let b = parallel.detect(f);
            let n = naive.detect(f);
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.indices, n.indices);
            assert_eq!(a.stats, n.stats);
        }
    }

    #[test]
    fn explores_far_more_nodes_than_dfs() {
        // The Sec. IV-F claim: at the paper's low-SNR operating point the
        // leaf-biased search visits a small fraction of what BFS visits,
        // and under 1 % of the full enumeration.
        let (c, frames) = frames(8, Modulation::Qam4, 4.0, 10, 71);
        let bfs: BfsGemmSd<f64> = BfsGemmSd::new(c.clone());
        let dfs: SphereDecoder<f64> = SphereDecoder::new(c);
        let nb: u64 = frames
            .iter()
            .map(|f| bfs.detect(f).stats.nodes_generated)
            .sum();
        let nd: u64 = frames
            .iter()
            .map(|f| dfs.detect(f).stats.nodes_generated)
            .sum();
        assert!(nd * 4 < nb, "DFS ({nd}) should explore ≪ BFS ({nb}) nodes");
        let full = 10 * 4u64.pow(8);
        assert!(
            (nd as f64) < 0.05 * full as f64,
            "DFS explored {nd} of {full}"
        );
    }

    #[test]
    fn trace_shapes_are_consistent() {
        let (c, frames) = frames(6, Modulation::Qam4, 12.0, 5, 72);
        let bfs: BfsGemmSd<f64> = BfsGemmSd::new(c);
        for f in &frames {
            let (_, trace) = bfs.detect_traced(f);
            let levels = &trace.levels;
            assert_eq!(levels.len(), 6);
            assert_eq!(levels[0].frontier_in, 1);
            for (depth, l) in levels.iter().enumerate() {
                assert_eq!(l.children, l.frontier_in * 4);
                assert!(l.survivors <= l.children);
                assert_eq!(l.gemm_shape, (1, depth + 1, l.children));
            }
            for w in levels.windows(2) {
                assert_eq!(w[1].frontier_in, w[0].survivors);
            }
        }
    }

    #[test]
    fn restart_grows_radius_until_leaf_found() {
        let (c, frames) = frames(4, Modulation::Qam4, 4.0, 15, 73);
        let bfs: BfsGemmSd<f64> =
            BfsGemmSd::new(c.clone()).with_initial_radius(InitialRadius::ScaledNoise(0.001));
        let ml = MlDetector::new(c);
        let mut saw_restart = false;
        for f in &frames {
            let (d, trace) = bfs.detect_traced(f);
            saw_restart |= trace.restarts > 0;
            assert_eq!(d.indices, ml.detect(f).indices);
        }
        assert!(saw_restart);
    }

    #[test]
    fn frontier_cap_clips_and_flags() {
        let (c, frames) = frames(6, Modulation::Qam4, 4.0, 10, 74);
        let capped: BfsGemmSd<f64> = BfsGemmSd::new(c).with_max_frontier(2);
        let mut clipped_any = false;
        for f in &frames {
            let (d, trace) = capped.detect_traced(f);
            clipped_any |= trace.clipped;
            assert_eq!(d.indices.len(), 6);
        }
        assert!(clipped_any, "cap of 2 must clip at 4 dB");
    }

    #[test]
    #[should_panic(expected = "finite initial radius")]
    fn infinite_radius_rejected() {
        let c = Constellation::new(Modulation::Qam4);
        let _ = BfsGemmSd::<f64>::new(c).with_initial_radius(InitialRadius::Infinite);
    }
}
