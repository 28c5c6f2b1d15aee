//! The paper's sphere decoder: sorted-children depth-first traversal.
//!
//! Children of each expanded node are evaluated with the GEMM formulation
//! (Phase 1–2 of the pipeline), *sorted by partial distance* (Phase 3,
//! Fig. 3), and visited in LIFO order — so the search dives toward the
//! most promising leaf first, establishes a tight sphere radius early, and
//! prunes aggressively on the way back up. With an admissible radius the
//! result is exactly the ML solution; with a finite initial radius the
//! decoder restarts with an enlarged sphere when no leaf survives, so
//! exactness holds for every [`InitialRadius`].

use crate::arena::SearchWorkspace;
use crate::detector::{Detection, DetectionStats, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_lanes, greedy_tail, order_lanes, EvalStrategy};
use crate::preprocess::{ColumnOrdering, Prepared};
use crate::radius::InitialRadius;
use crate::trace::{span_clock, span_ns, Phase, TraceSink};
use sd_math::{Complex, Float};
use sd_wireless::Constellation;
use std::time::Instant;

/// Compile-time observability switch for the DFS hot path.
///
/// The search is generic over its sink so that the common untraced decode
/// monomorphizes with [`NoSink`]: every `on_*` call inlines to nothing and
/// `S::ACTIVE == false` makes [`span_clock`] skip the `Instant` reads —
/// the traced and untraced paths share one source of truth for the
/// traversal and accounting, but the untraced binary carries zero
/// per-node branches for it. (Boxing the sink into an `Option<&mut dyn>`
/// field cost ~11% end-to-end on 16×16/16-QAM; see BENCH_expansion.json.)
pub(crate) trait DfsSink {
    /// Whether phase spans should read the clock.
    const ACTIVE: bool;
    fn on_phase(&mut self, phase: Phase, ns: u64);
    fn on_expand(&mut self, level: usize, parents: u64, children: u64);
    fn on_sort(&mut self, level: usize, elements: u64);
    fn on_prune(&mut self, level: usize, n: u64);
    fn on_accept(&mut self, level: usize, n: u64);
    fn on_radius_update(&mut self, level: usize, radius_sqr: f64);
    fn on_restart(&mut self);
}

/// The untraced decode: all hooks are no-ops and the optimizer deletes
/// them (and the clock reads guarded by `ACTIVE`).
pub(crate) struct NoSink;

impl DfsSink for NoSink {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn on_phase(&mut self, _: Phase, _: u64) {}
    #[inline(always)]
    fn on_expand(&mut self, _: usize, _: u64, _: u64) {}
    #[inline(always)]
    fn on_sort(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_prune(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_accept(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn on_radius_update(&mut self, _: usize, _: f64) {}
    #[inline(always)]
    fn on_restart(&mut self) {}
}

/// The traced decode: forwards every hook to the workspace's
/// [`TraceSink`].
pub(crate) struct DynSink<'a>(pub(crate) &'a mut (dyn TraceSink + 'static));

impl DfsSink for DynSink<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn on_phase(&mut self, phase: Phase, ns: u64) {
        self.0.on_phase(phase, ns);
    }
    #[inline]
    fn on_expand(&mut self, level: usize, parents: u64, children: u64) {
        self.0.on_expand(level, parents, children);
    }
    #[inline]
    fn on_sort(&mut self, level: usize, elements: u64) {
        self.0.on_sort(level, elements);
    }
    #[inline]
    fn on_prune(&mut self, level: usize, n: u64) {
        self.0.on_prune(level, n);
    }
    #[inline]
    fn on_accept(&mut self, level: usize, n: u64) {
        self.0.on_accept(level, n);
    }
    #[inline]
    fn on_radius_update(&mut self, level: usize, radius_sqr: f64) {
        self.0.on_radius_update(level, radius_sqr);
    }
    #[inline]
    fn on_restart(&mut self) {
        self.0.on_restart();
    }
}

/// Sorted-DFS sphere decoder (the paper's algorithm), generic over the
/// working precision `F`.
#[derive(Clone, Debug)]
pub struct SphereDecoder<F: Float = f64> {
    constellation: Constellation,
    /// Child-evaluation strategy (GEMM-based by default).
    pub eval: EvalStrategy,
    /// Initial sphere radius policy.
    pub initial_radius: InitialRadius,
    /// Sort children by PD before descending (`false` reproduces a plain
    /// DFS for the ablation study).
    pub sort_children: bool,
    /// Detection-order preprocessing (column permutation before QR).
    pub ordering: ColumnOrdering,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> SphereDecoder<F> {
    /// Decoder with the paper's defaults: GEMM evaluation, sorted
    /// children, infinite initial radius.
    pub fn new(constellation: Constellation) -> Self {
        SphereDecoder {
            constellation,
            eval: EvalStrategy::Gemm,
            initial_radius: InitialRadius::Infinite,
            sort_children: true,
            ordering: ColumnOrdering::Natural,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: detection-order preprocessing.
    pub fn with_ordering(mut self, ordering: ColumnOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Builder: evaluation strategy.
    pub fn with_eval(mut self, eval: EvalStrategy) -> Self {
        self.eval = eval;
        self
    }

    /// Builder: initial radius policy.
    pub fn with_initial_radius(mut self, r: InitialRadius) -> Self {
        self.initial_radius = r;
        self
    }

    /// Builder: toggle child sorting (ablation).
    pub fn with_sorted_children(mut self, sort: bool) -> Self {
        self.sort_children = sort;
        self
    }

    /// The constellation this decoder was built for.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }
}

impl<F: Float> PreparedDetector<F> for SphereDecoder<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn ordering(&self) -> ColumnOrdering {
        self.ordering
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.initial_radius.resolve(n_rx, noise_variance)
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    /// Decode an already-preprocessed problem into a caller-owned
    /// [`Detection`]: the state table and best-path buffer come from
    /// `ws`, and `out`'s index vector and per-level histogram keep their
    /// capacity — with a warm `ws` and `out`, a decode performs zero heap
    /// allocations.
    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, budget, ws, out);
    }
}

impl<F: Float> SphereDecoder<F> {
    /// The shared decode body: the unbudgeted entry point passes
    /// [`DecodeBudget::UNLIMITED`], which can never trip, so both paths
    /// run literally the same code.
    fn decode_budgeted(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        ws.prepare(prep.order, prep.n_tx);
        out.stats.reset(prep.n_tx);
        // The sink leaves the workspace for the duration of the decode so
        // the search can borrow it alongside the other buffers. Dispatch
        // on its presence ONCE, here, so the per-node hot path is
        // monomorphized trace-free when no sink is installed.
        let mut trace = ws.trace.take();
        let best_metric = match trace.as_deref_mut() {
            Some(t) => {
                t.on_decode_start(prep.n_tx);
                self.run(prep, radius_sqr, budget, ws, out, DynSink(t))
            }
            None => self.run(prep, radius_sqr, budget, ws, out, NoSink),
        };
        ws.trace = trace;
        prep.indices_from_path_into(&ws.best_path, &mut out.indices);
        out.stats.final_radius_sqr = best_metric.to_f64();
        out.stats.flops += prep.prep_flops;
    }

    /// The restart loop, monomorphized per sink type. Returns the final
    /// squared radius.
    fn run<S: DfsSink>(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
        sink: S,
    ) -> F {
        let mut dfs = Dfs {
            prep,
            eval: self.eval,
            sort: self.sort_children,
            leaves: prep.n_tx,
            table: &mut ws.dfs,
            stats: &mut out.stats,
            sink,
        };
        let mut incumbent = Incumbent {
            radius: F::from_f64(radius_sqr),
            best_path: &mut ws.best_path,
            max_nodes: budget.max_nodes,
            deadline: budget.deadline,
        };
        let mut r2 = radius_sqr;
        loop {
            let finished = dfs.walk(&[], F::ZERO, &mut incumbent);
            if finished && !incumbent.best_path.is_empty() {
                break;
            }
            if finished && InitialRadius::can_restart(r2, dfs.stats.restarts) {
                // Empty sphere: enlarge and retry (keeps the decoder exact
                // for finite initial radii).
                r2 *= InitialRadius::RESTART_GROWTH;
                dfs.stats.restarts += 1;
                dfs.sink.on_restart();
                incumbent.radius = F::from_f64(r2);
                continue;
            }
            // The budget tripped, or the sphere is empty at a radius that
            // restarting cannot grow: keep the best-so-far leaf, or
            // complete one greedily if no walk reached the bottom.
            let spent = dfs.stats.nodes_generated;
            if incumbent.best_path.is_empty() {
                incumbent.radius = greedy_tail(
                    prep,
                    self.eval,
                    incumbent.best_path,
                    F::ZERO,
                    dfs.stats,
                    &mut ws.scratch,
                );
                dfs.stats.leaves_reached += 1;
                dfs.stats.radius_updates += 1;
            }
            dfs.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
            break;
        }
        incumbent.radius
    }
}

impl_detector_via_prepared!(SphereDecoder<F>, "SD sorted-DFS (paper)");

/// The sequential decoder's walk: prune against its own incumbent radius,
/// shrink it at every leaf, and stop on its own [`DecodeBudget`].
struct Incumbent<'a, F: Float> {
    /// Current squared sphere radius (shrinks on every accepted leaf).
    radius: F,
    best_path: &'a mut Vec<usize>,
    /// Node-generation ceiling ([`DecodeBudget::max_nodes`]); `u64::MAX`
    /// when unbudgeted.
    max_nodes: u64,
    /// Wall-clock cutoff, sampled every 64 expansions.
    deadline: Option<Instant>,
}

impl<F: Float> DfsWalk<F> for Incumbent<'_, F> {
    /// The node check is one integer compare per expansion; the deadline
    /// is sampled every 64 expansions and only when one is set, so the
    /// unbudgeted hot path pays (almost) nothing.
    #[inline]
    fn tripped(&mut self, stats: &DetectionStats, _children: u64) -> bool {
        stats.nodes_generated >= self.max_nodes
            || self
                .deadline
                .is_some_and(|d| (stats.nodes_expanded & 63) == 0 && Instant::now() >= d)
    }

    #[inline]
    fn admits(&self, pd: F) -> bool {
        pd < self.radius
    }

    /// A leaf inside the sphere: Algorithm 1 lines 7–9.
    fn leaf<S: DfsSink>(&mut self, path: &[usize], pd: F, st: &mut DetectionStats, sink: &mut S) {
        st.leaves_reached += 1;
        st.radius_updates += 1;
        self.radius = pd;
        let t0 = span_clock(S::ACTIVE);
        self.best_path.clear();
        self.best_path.extend_from_slice(path);
        sink.on_phase(Phase::Leaf, span_ns(t0));
        sink.on_radius_update(path.len() - 1, pd.to_f64());
    }
}

/// What tells the three depth-first walks apart — the sequential decode,
/// the subtree-parallel enumeration and a parallel worker: where the
/// pruning bound comes from, what an accepted child at the leaf depth
/// does, and whose budget an expansion draws on. Everything else is
/// [`Dfs::walk`].
pub(crate) trait DfsWalk<F: Float> {
    /// Whether the budget has run out; asked before every expansion of
    /// `children` nodes. It only ever stops the walk, never reorders it,
    /// so an untripped budget changes nothing.
    fn tripped(&mut self, stats: &DetectionStats, children: u64) -> bool;
    /// Whether a child with partial distance `pd` lies inside the sphere.
    fn admits(&self, pd: F) -> bool;
    /// An accepted child at the leaf depth, whose path (ending in the
    /// child) is `path`.
    fn leaf<S: DfsSink>(&mut self, path: &[usize], pd: F, st: &mut DetectionStats, sink: &mut S);
}

/// The depth-first search's per-level state table — the software form
/// of the paper's Meta State Table (Sec. III-C3) fed by its sort unit:
/// per depth, the expanded node's children in visit order, the next rank
/// to try and the node's partial distance. [`Dfs::walk`] runs on it in
/// place of a recursion.
#[derive(Default)]
pub(crate) struct DfsTable<F: Float> {
    /// Natural-order increments of the latest expansion (`P` lanes).
    lanes: Vec<F>,
    /// Per depth, `P` increments in visit order …
    inc: Vec<F>,
    /// … and the matching constellation indices.
    child: Vec<u32>,
    /// Per depth, the next rank to try.
    next: Vec<usize>,
    /// Per depth, the partial distance of the expanded node.
    pd: Vec<F>,
    /// Per depth, the child the current path fixes.
    path: Vec<usize>,
    /// Per antenna, the symbol the current path fixes: antenna `i`'s
    /// suffix is `sym[i+1..M]`, already in PD suffix order.
    sym: Vec<Complex<F>>,
}

impl<F: Float> DfsTable<F> {
    /// Size the table for branching factor `order` and depth `n_tx`,
    /// allocating only on growth.
    pub(crate) fn ensure(&mut self, order: usize, n_tx: usize) {
        self.lanes.resize(order, F::ZERO);
        self.inc.resize(order * n_tx, F::ZERO);
        self.child.resize(order * n_tx, 0);
        self.next.resize(n_tx, 0);
        self.pd.resize(n_tx, F::ZERO);
        self.path.resize(n_tx, 0);
        self.sym.resize(n_tx, Complex::zero());
    }
}

/// One depth-first search in flight: the problem, the expansion policy,
/// the state table and the stats it charges, and the observability sink
/// ([`NoSink`] on the untraced hot path).
pub(crate) struct Dfs<'a, F: Float, S: DfsSink> {
    pub(crate) prep: &'a Prepared<F>,
    pub(crate) eval: EvalStrategy,
    /// Visit children in ascending increment order (`false` is the plain
    /// DFS ablation: natural order, each child pruned on its own).
    pub(crate) sort: bool,
    /// The depth whose accepted children go to [`DfsWalk::leaf`]: `M`,
    /// or the split depth of the subtree-parallel enumeration.
    pub(crate) leaves: usize,
    pub(crate) table: &'a mut DfsTable<F>,
    pub(crate) stats: &'a mut DetectionStats,
    pub(crate) sink: S,
}

impl<F: Float, S: DfsSink> Dfs<'_, F, S> {
    /// Search the subtree below the node that fixes `prefix` (depth
    /// order), whose partial distance is `pd0`; `false` when the budget
    /// tripped, which ends the walk at once. Nodes are visited in the
    /// recursion's order with the same counters and sink events: the
    /// budget is asked before each expansion, a child meets the bound
    /// when its turn comes (after any leaf below an earlier sibling), and
    /// in sorted order the first child outside prunes all the rest.
    pub(crate) fn walk<W: DfsWalk<F>>(&mut self, prefix: &[usize], pd0: F, w: &mut W) -> bool {
        match self.prep.order {
            2 => self.walk_lanes::<W, 2>(prefix, pd0, w),
            4 => self.walk_lanes::<W, 4>(prefix, pd0, w),
            16 => self.walk_lanes::<W, 16>(prefix, pd0, w),
            _ => self.walk_lanes::<W, 0>(prefix, pd0, w),
        }
    }

    /// [`Dfs::walk`] with the kernel's lane width (`0`: none) fixed at
    /// compile time.
    fn walk_lanes<W: DfsWalk<F>, const LANES: usize>(
        &mut self,
        prefix: &[usize],
        pd0: F,
        w: &mut W,
    ) -> bool {
        let p = if LANES > 0 { LANES } else { self.prep.order };
        let start = prefix.len();
        for (d, &child) in prefix.iter().enumerate() {
            self.fix(d, child);
        }
        if !self.expand::<W, LANES>(start, pd0, w) {
            return false;
        }
        let mut d = start;
        loop {
            let rank = self.table.next[d];
            if rank < p {
                let at = d * p + rank;
                let pd = self.table.pd[d] + self.table.inc[at];
                if w.admits(pd) {
                    self.table.next[d] = rank + 1;
                    self.sink.on_accept(d, 1);
                    self.fix(d, self.table.child[at] as usize);
                    if d + 1 == self.leaves {
                        w.leaf(&self.table.path[..=d], pd, self.stats, &mut self.sink);
                    } else {
                        d += 1;
                        if !self.expand::<W, LANES>(d, pd, w) {
                            return false;
                        }
                    }
                    continue;
                }
                if !self.sort {
                    self.table.next[d] = rank + 1;
                    self.stats.nodes_pruned += 1;
                    self.sink.on_prune(d, 1);
                    continue;
                }
                // Sorted order ⇒ every remaining sibling is pruned too.
                let rest = (p - rank) as u64;
                self.stats.nodes_pruned += rest;
                self.sink.on_prune(d, rest);
            }
            if d == start {
                return true;
            }
            d -= 1;
        }
    }

    /// Fix `child` at depth `d` on the current path.
    #[inline]
    fn fix(&mut self, d: usize, child: usize) {
        self.table.path[d] = child;
        self.table.sym[self.prep.n_tx - 1 - d] = self.prep.points[child];
    }

    /// Expand the depth-`d` node of the current path into its table row.
    #[inline]
    fn expand<W: DfsWalk<F>, const LANES: usize>(&mut self, d: usize, pd: F, w: &mut W) -> bool {
        let p = if LANES > 0 { LANES } else { self.prep.order };
        if w.tripped(self.stats, p as u64) {
            return false;
        }
        let t = &mut *self.table;
        self.stats.nodes_expanded += 1;
        let t0 = span_clock(S::ACTIVE);
        self.stats.flops += eval_lanes::<F, LANES>(self.prep, d, &t.sym, self.eval, &mut t.lanes);
        self.sink.on_phase(Phase::Expand, span_ns(t0));
        self.sink.on_expand(d, 1, p as u64);
        self.stats.nodes_generated += p as u64;
        self.stats.per_level_generated[d] += p as u64;
        let row = d * p..(d + 1) * p;
        if self.sort {
            let t0 = span_clock(S::ACTIVE);
            order_lanes::<F, LANES>(&t.lanes, &mut t.inc[row.clone()], &mut t.child[row]);
            self.sink.on_phase(Phase::Sort, span_ns(t0));
            self.sink.on_sort(d, p as u64);
        } else {
            t.inc[row.clone()].copy_from_slice(&t.lanes);
            t.child[row]
                .iter_mut()
                .zip(0..)
                .for_each(|(slot, c)| *slot = c);
        }
        t.pd[d] = pd;
        t.next[d] = 0;
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::FrameData;
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

    /// An 8×8 QAM4 vector whose `H` is scaled by 1e160: every entry is
    /// finite, but its squared norms overflow, so every metric is NaN.
    pub(crate) fn huge_channel_frame(seed: u64) -> (Constellation, FrameData) {
        let (c, mut fs) = frames(8, Modulation::Qam4, 10.0, 1, seed);
        let mut f = fs.remove(0);
        for v in f.h.as_mut_slice() {
            *v = v.scale(1e160);
        }
        assert!(f.h.is_finite());
        (c, f)
    }

    /// A walk that captures no leaf at a radius restarting cannot grow —
    /// NaN metrics under an infinite radius, or a zero radius — ends on
    /// the greedy leaf, flagged, instead of restarting into a panic. A
    /// zero channel without noise captures a leaf and stays exact.
    #[test]
    fn an_uncapturable_sphere_returns_the_flagged_greedy_leaf() {
        let (c, huge) = huge_channel_frame(8);
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::Sorted] {
            let sd = SphereDecoder::<f64>::new(c.clone()).with_ordering(ordering);
            let det = sd.detect(&huge);
            assert_eq!(det.indices.len(), 8);
            assert!(det.indices.iter().all(|&i| i < c.order()));
            assert!(det.stats.quality.is_truncated(), "{ordering:?}");
            assert_eq!(det.stats.restarts, 0, "an infinite radius never grows");
            assert_eq!(det.stats.leaves_reached, 1);
        }
        let (_, fs) = frames(4, Modulation::Qam4, 10.0, 1, 9);
        let prep = preprocess::<f64>(&fs[0], &c);
        let det = SphereDecoder::<f64>::new(c.clone()).detect_prepared(&prep, 0.0);
        assert!(det.stats.quality.is_truncated());
        assert_eq!(det.indices.len(), 4);

        let mut zero = fs[0].clone();
        zero.h = sd_math::Matrix::zeros(4, 4);
        zero.noise_variance = 0.0;
        let det = SphereDecoder::<f64>::new(c).detect(&zero);
        assert_eq!(det.indices.len(), 4);
        assert!(!det.stats.quality.is_truncated());
    }

    #[test]
    fn matches_exhaustive_ml_qam4() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 30, 42);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            let a = sd.detect(f);
            let b = ml.detect(f);
            assert_eq!(a.indices, b.indices, "SD must be ML-exact");
        }
    }

    #[test]
    fn matches_exhaustive_ml_qam16() {
        let (c, frames) = frames(3, Modulation::Qam16, 6.0, 20, 43);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(sd.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn finite_radius_still_exact() {
        let (c, frames) = frames(4, Modulation::Qam4, 4.0, 25, 44);
        let inf: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        // Deliberately tiny radius to force restarts.
        let tight: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_initial_radius(InitialRadius::ScaledNoise(0.01));
        let mut saw_restart = false;
        for f in &frames {
            let a = inf.detect(f);
            let b = tight.detect(f);
            assert_eq!(a.indices, b.indices);
            saw_restart |= b.stats.restarts > 0;
        }
        assert!(saw_restart, "0.01·N·σ² should be empty at least once");
    }

    #[test]
    fn unsorted_dfs_same_answer_more_work() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 45);
        let sorted: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let plain: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_sorted_children(false);
        let mut n_sorted = 0u64;
        let mut n_plain = 0u64;
        for f in &frames {
            let a = sorted.detect(f);
            let b = plain.detect(f);
            assert_eq!(a.indices, b.indices, "both are exact");
            n_sorted += a.stats.nodes_generated;
            n_plain += b.stats.nodes_generated;
        }
        assert!(
            n_sorted < n_plain,
            "sorting must shrink the search: {n_sorted} vs {n_plain}"
        );
    }

    #[test]
    fn incremental_eval_same_answer_fewer_flops() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 46);
        let gemm: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let inc: SphereDecoder<f64> =
            SphereDecoder::new(c.clone()).with_eval(EvalStrategy::Incremental);
        for f in &frames {
            let a = gemm.detect(f);
            let b = inc.detect(f);
            assert_eq!(a.indices, b.indices);
            assert!(a.stats.flops > b.stats.flops);
            assert_eq!(a.stats.nodes_generated, b.stats.nodes_generated);
        }
    }

    #[test]
    fn high_snr_explores_fewer_nodes() {
        let (c, lo) = frames(8, Modulation::Qam4, 4.0, 20, 47);
        let (_, hi) = frames(8, Modulation::Qam4, 20.0, 20, 47);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let count = |fs: &[FrameData]| -> u64 {
            fs.iter().map(|f| sd.detect(f).stats.nodes_generated).sum()
        };
        let n_lo = count(&lo);
        let n_hi = count(&hi);
        assert!(
            n_hi * 2 < n_lo,
            "tree must shrink with SNR: {n_lo} @4dB vs {n_hi} @20dB"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 5, 48);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            let d = sd.detect(f);
            let s = &d.stats;
            assert_eq!(s.nodes_generated, s.per_level_generated.iter().sum::<u64>());
            assert_eq!(s.nodes_generated, s.nodes_expanded * 4);
            assert!(s.leaves_reached >= 1);
            assert_eq!(s.leaves_reached, s.radius_updates);
            assert!(s.final_radius_sqr.is_finite());
            assert!(s.flops > 0);
        }
    }

    #[test]
    fn returned_metric_matches_solution() {
        let (c, frames) = frames(6, Modulation::Qam16, 12.0, 5, 49);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        for f in &frames {
            let d = sd.detect(f);
            let prep: Prepared<f64> = preprocess(f, &c);
            let metric = prep.full_metric(&d.indices) - prep.tail_energy;
            assert!(
                (metric - d.stats.final_radius_sqr).abs() < 1e-8,
                "metric {metric} != reported {}",
                d.stats.final_radius_sqr
            );
        }
    }

    #[test]
    fn f32_precision_usually_matches_f64() {
        let (c, frames) = frames(6, Modulation::Qam4, 12.0, 20, 50);
        let sd64: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let sd32: SphereDecoder<f32> = SphereDecoder::new(c);
        let agree = frames
            .iter()
            .filter(|f| sd64.detect(f).indices == sd32.detect(f).indices)
            .count();
        assert!(agree >= 19, "f32 disagreed on {} of 20 frames", 20 - agree);
    }

    #[test]
    fn ordering_preserves_ml_exactness() {
        let (c, frames) = frames(6, Modulation::Qam4, 6.0, 20, 52);
        let ml = MlDetector::new(c.clone());
        for ordering in [
            ColumnOrdering::Natural,
            ColumnOrdering::NormDescending,
            ColumnOrdering::NormAscending,
            ColumnOrdering::Sorted,
        ] {
            let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_ordering(ordering);
            for f in &frames {
                assert_eq!(sd.detect(f).indices, ml.detect(f).indices, "{ordering:?}");
            }
        }
    }

    #[test]
    fn good_ordering_shrinks_the_search() {
        // Detecting reliable streams first is the classic V-BLAST trick:
        // aggregate node counts must improve over the pessimal order, and
        // the sorted QR's over the natural order.
        let (c, frames) = frames(10, Modulation::Qam4, 8.0, 25, 53);
        let nodes = |ordering| -> u64 {
            let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_ordering(ordering);
            frames
                .iter()
                .map(|f| sd.detect(f).stats.nodes_generated)
                .sum()
        };
        let n_best = nodes(ColumnOrdering::NormDescending);
        let n_worst = nodes(ColumnOrdering::NormAscending);
        assert!(
            n_best < n_worst,
            "descending ({n_best}) must beat ascending ({n_worst})"
        );
        let n_sorted = nodes(ColumnOrdering::Sorted);
        let n_natural = nodes(ColumnOrdering::Natural);
        assert!(
            n_sorted < n_natural,
            "sorted ({n_sorted}) must beat natural ({n_natural})"
        );
    }

    /// An unexhausted budget must leave the decode bit-identical —
    /// indices, stats, metric bits — to the unbudgeted engine.
    #[test]
    fn generous_budget_is_bit_identical() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 20, 54);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut plain = Detection::default();
        let mut budgeted = Detection::default();
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_into(&prep, f64::INFINITY, &mut ws, &mut plain);
            // One node more than the decode needs: the check can never trip.
            let budget = DecodeBudget::nodes(plain.stats.nodes_generated + 1);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut budgeted);
            assert_eq!(budgeted, plain, "unexhausted budget must change nothing");
            assert_eq!(budgeted.stats.quality, SearchQuality::Exact);
            // The unlimited budget is the plain decode by construction.
            sd.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::UNLIMITED,
                &mut ws,
                &mut budgeted,
            );
            assert_eq!(budgeted, plain);
        }
    }

    /// A tight budget must truncate, flag the result, and still return a
    /// complete symbol vector whose reported metric matches it.
    #[test]
    fn exhausted_budget_returns_best_so_far_leaf() {
        let (c, frames) = frames(8, Modulation::Qam4, 4.0, 20, 55);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let mut saw_truncation = false;
        for f in &frames {
            let prep = sd.prepare_frame(f);
            let full = sd.detect_prepared_in(&prep, f64::INFINITY, &mut ws);
            // Half the full spend: low-SNR 8x8 searches blow well past it.
            let budget = DecodeBudget::nodes(full.stats.nodes_generated / 2);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert_eq!(out.indices.len(), 8, "always a complete vector");
            if let SearchQuality::BudgetTruncated { nodes_spent } = out.stats.quality {
                saw_truncation = true;
                assert!(nodes_spent >= budget.max_nodes);
                // The reported radius is the returned leaf's metric, and
                // an anytime answer can never beat the exact one.
                let metric = prep.full_metric(&out.indices) - prep.tail_energy;
                assert!((metric - out.stats.final_radius_sqr).abs() < 1e-8);
                assert!(out.stats.final_radius_sqr >= full.stats.final_radius_sqr - 1e-12);
            }
        }
        assert!(saw_truncation, "half-spend budgets must trip somewhere");
    }

    /// A budget of zero nodes degenerates to the greedy (SIC-style)
    /// completion: still a complete, flagged answer.
    #[test]
    fn zero_budget_degenerates_to_greedy_completion() {
        let (c, frames) = frames(6, Modulation::Qam4, 10.0, 5, 56);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::nodes(0),
                &mut ws,
                &mut out,
            );
            assert_eq!(out.indices.len(), 6);
            assert!(out.stats.quality.is_truncated());
            assert_eq!(out.stats.leaves_reached, 1);
            let metric = prep.full_metric(&out.indices) - prep.tail_energy;
            assert!((metric - out.stats.final_radius_sqr).abs() < 1e-8);
        }
    }

    /// An already-expired deadline truncates immediately.
    #[test]
    fn expired_deadline_truncates() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 3, 57);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let budget = DecodeBudget {
            max_nodes: u64::MAX,
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        for f in &frames {
            let prep = sd.prepare_frame(f);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut out);
            assert!(out.stats.quality.is_truncated());
            assert_eq!(out.indices.len(), 6);
        }
    }

    #[test]
    fn bpsk_single_antenna() {
        // Degenerate 1×1 system: SD must slice correctly.
        let c = Constellation::new(Modulation::Bpsk);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let f = FrameData::generate(1, 1, &c, 0.01, &mut rng);
            let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
            let d = sd.detect(&f);
            assert_eq!(d.indices, f.tx.indices, "near-noiseless 1x1 decode");
        }
    }
}
