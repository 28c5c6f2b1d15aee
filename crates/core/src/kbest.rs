//! K-best (M-algorithm) sphere decoding.
//!
//! The classic fixed-throughput compromise between the exact SD and the
//! linear detectors: a level-synchronous sweep that keeps only the `K`
//! lowest-PD nodes per level. Like FSD it is massively parallel and
//! SNR-independent in workload (attractive for hardware), but unlike the
//! radius-based decoders it is *not* ML-exact unless `K` covers the
//! whole level. Included as the related-work baseline family the paper
//! contrasts against (Sec. II-C) and as an accuracy/throughput ablation
//! axis.
//!
//! Being level-synchronous, K-best gets the same batched treatment as the
//! BFS decoder: the surviving frontier lives in the [`crate::arena`] slab
//! and each level's children are evaluated with one
//! [`crate::pd::eval_children_batch`] GEMM call. Partial distances
//! accumulate in the working precision `F` (not `f64`), preserving the
//! original fixed-precision semantics bit for bit.

use crate::arena::{SearchWorkspace, NIL};
use crate::block::decode_prepared_loop;
use crate::detector::{Detection, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{eval_children_batch, eval_children_batch_fused, greedy_tail, EvalStrategy};
use crate::preprocess::{BlockPrep, Prepared};
use crate::select::{keep_best, keep_best_slice};
use crate::trace::{span_clock, span_ns, Phase};
use sd_math::{Float, GemmAlgo};
use sd_wireless::{Constellation, FrameData};

/// K-best breadth-limited decoder.
#[derive(Clone, Debug)]
pub struct KBestSd<F: Float = f64> {
    constellation: Constellation,
    /// Survivors kept per level.
    pub k: usize,
    /// Kernel driving the per-level batched GEMM.
    pub batch_algo: GemmAlgo,
    _precision: std::marker::PhantomData<F>,
}

impl<F: Float> KBestSd<F> {
    /// K-best decoder with the given per-level list size.
    pub fn new(constellation: Constellation, k: usize) -> Self {
        assert!(k > 0, "K must be positive");
        KBestSd {
            constellation,
            k,
            batch_algo: GemmAlgo::Blocked,
            _precision: std::marker::PhantomData,
        }
    }

    /// Builder: batched-GEMM kernel (bit-identical across kernels).
    pub fn with_batch_algo(mut self, algo: GemmAlgo) -> Self {
        self.batch_algo = algo;
        self
    }
}

impl<F: Float> PreparedDetector<F> for KBestSd<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    /// Level-synchronous K-best sweep into a caller-owned [`Detection`]:
    /// a warm workspace + output pair decodes without heap allocation.
    /// The sweep is breadth-limited rather than radius-bounded, so
    /// `radius_sqr` is ignored.
    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.detect_prepared_budgeted_into(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    /// The K-best sweep under an anytime budget: the node cap / deadline
    /// is checked once per tree level, and a trip ends the level loop
    /// with the best frontier node greedily completed to a leaf
    /// ([`SearchQuality::BudgetTruncated`]). Untripped decodes are
    /// bit-identical to [`Self::detect_prepared_into`] (the checks are
    /// pure reads).
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        _radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        out.stats.reset(m);
        let mut trace = ws.trace.take();
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }

        // Frontier of (pd, arena id), capped at K after each level.
        ws.frontier_f.clear();
        ws.frontier_f.push((F::ZERO, NIL));
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out.stats.nodes_generated) {
                tripped = true;
                break;
            }
            let stats = &mut out.stats;
            ws.ids.clear();
            ws.ids.extend(ws.frontier_f.iter().map(|&(_, id)| id));
            let t0 = span_clock(trace.is_some());
            stats.flops +=
                eval_children_batch(prep, &ws.arena, &ws.ids, self.batch_algo, &mut ws.scratch);
            if let Some(t) = trace.as_deref_mut() {
                t.on_phase(Phase::Expand, span_ns(t0));
                t.on_expand(
                    depth,
                    ws.frontier_f.len() as u64,
                    (ws.frontier_f.len() * p) as u64,
                );
            }
            stats.nodes_expanded += ws.frontier_f.len() as u64;
            stats.nodes_generated += (ws.frontier_f.len() * p) as u64;
            stats.per_level_generated[depth] += (ws.frontier_f.len() * p) as u64;

            ws.next_f.clear();
            for (bi, &(pd, id)) in ws.frontier_f.iter().enumerate() {
                for c in 0..p {
                    let child_pd = pd + ws.scratch.batch_increments[bi * p + c];
                    let child = ws.arena.alloc(id, c);
                    ws.next_f.push((child_pd, child));
                }
            }
            if ws.next_f.len() > self.k {
                let sorted = ws.next_f.len();
                let t0 = span_clock(trace.is_some());
                // Partial selection instead of a full sort: keep the K
                // best (then order just those) — the level cost drops
                // from O(n log n) to O(n + K log K), which PR 6 measured
                // as the float engine's Amdahl bottleneck.
                keep_best(&mut ws.next_f, self.k, |a, b| {
                    a.0.to_f64().total_cmp(&b.0.to_f64())
                });
                stats.nodes_pruned += (sorted - self.k) as u64;
                if let Some(t) = trace.as_deref_mut() {
                    t.on_phase(Phase::Sort, span_ns(t0));
                    t.on_sort(depth, sorted as u64);
                    t.on_prune(depth, (sorted - self.k) as u64);
                }
            }
            if let Some(t) = trace.as_deref_mut() {
                t.on_accept(depth, ws.next_f.len() as u64);
            }
            std::mem::swap(&mut ws.frontier_f, &mut ws.next_f);
        }

        if tripped {
            // Best-so-far: greedily complete the most promising frontier
            // node to a leaf and flag the truncation.
            let spent = out.stats.nodes_generated;
            let &(pd, id) = ws
                .frontier_f
                .iter()
                .min_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()))
                .expect("frontier is never empty");
            ws.arena.path_into(id, &mut ws.path_buf);
            let final_pd = greedy_tail(
                prep,
                EvalStrategy::Gemm,
                &mut ws.path_buf,
                pd,
                &mut out.stats,
                &mut ws.scratch,
            );
            out.stats.leaves_reached += 1;
            out.stats.radius_updates = 1;
            out.stats.final_radius_sqr = final_pd.to_f64();
            out.stats.flops += prep.prep_flops;
            out.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
            ws.trace = trace;
            prep.indices_from_path_into(&ws.path_buf, &mut out.indices);
            return;
        }

        out.stats.leaves_reached = ws.frontier_f.len() as u64;
        let t0 = span_clock(trace.is_some());
        let &(best_pd, best_id) = ws
            .frontier_f
            .iter()
            .min_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()))
            .expect("frontier is never empty");
        out.stats.radius_updates = 1;
        out.stats.final_radius_sqr = best_pd.to_f64();
        out.stats.flops += prep.prep_flops;
        ws.arena.path_into(best_id, &mut ws.path_buf);
        if let Some(t) = trace.as_deref_mut() {
            t.on_phase(Phase::Leaf, span_ns(t0));
            t.on_radius_update(m - 1, best_pd.to_f64());
        }
        ws.trace = trace;
        prep.indices_from_path_into(&ws.path_buf, &mut out.indices);
    }

    /// Cross-subcarrier fused block decode: ONE K-best sweep over the
    /// whole coherence block. The per-subcarrier frontiers are stacked
    /// subcarrier-major into a single `(depth × B·fl)` operand and each
    /// tree level costs one fused GEMM call
    /// ([`eval_children_batch_fused`]) instead of `B`; the survivor cut
    /// then runs per subcarrier on the fused score list.
    ///
    /// Exactness: the GEMM never sees ȳ (shared-`R` lemma), each
    /// subcarrier's candidate segment is the same value sequence the
    /// per-subcarrier loop produces, and the cut is a deterministic
    /// function of that sequence — so indices, stats and metric bits are
    /// bit-identical per subcarrier, budgets included (uniform frontier
    /// sizes make every subcarrier trip at the same level).
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<F>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<F>,
        ws: &mut SearchWorkspace<F>,
        out: &mut [Detection],
    ) -> bool {
        if ws.trace_enabled() {
            // Per-decode event streams need the loop path.
            decode_prepared_loop(self, block, frames, budget, prep, ws, out);
            return false;
        }
        let b_count = frames.len();
        debug_assert_eq!(out.len(), b_count);
        if b_count == 0 {
            return true;
        }
        // `prep` holds the shared channel state (R, points,
        // permutation); per-subcarrier ȳ is read straight off the block.
        let m = prep.n_tx;
        let p = prep.order;
        ws.prepare(p, m);
        for d in out.iter_mut() {
            d.stats.reset(m);
        }

        // One root per subcarrier, subcarrier-major; `fl` is the uniform
        // per-subcarrier frontier length (min(pᵈ, K) — data-independent).
        ws.frontier_f.clear();
        ws.frontier_f.extend((0..b_count).map(|_| (F::ZERO, NIL)));
        let mut fl = 1usize;
        let mut tripped = false;
        for depth in 0..m {
            if budget.tripped_after(out[0].stats.nodes_generated) {
                tripped = true;
                break;
            }
            ws.ids.clear();
            ws.ids.extend(ws.frontier_f.iter().map(|&(_, id)| id));
            let i_ant = m - 1 - depth;
            ws.ybar_lanes.clear();
            for sc in 0..b_count {
                ws.ybar_lanes.push(block.ybar_at(i_ant, sc));
            }
            let level_flops = eval_children_batch_fused(
                prep,
                &ws.arena,
                &ws.ids,
                &ws.ybar_lanes,
                fl,
                self.batch_algo,
                &mut ws.scratch,
            );
            // The fused flop charge is linear in nodes: attribute each
            // subcarrier exactly its per-subcarrier share.
            let per_sc_flops = level_flops / b_count as u64;
            debug_assert_eq!(per_sc_flops * b_count as u64, level_flops);
            for d in out.iter_mut() {
                d.stats.flops += per_sc_flops;
                d.stats.nodes_expanded += fl as u64;
                d.stats.nodes_generated += (fl * p) as u64;
                d.stats.per_level_generated[depth] += (fl * p) as u64;
            }

            ws.next_f.clear();
            for (bi, &(pd, id)) in ws.frontier_f.iter().enumerate() {
                for c in 0..p {
                    let child_pd = pd + ws.scratch.batch_increments[bi * p + c];
                    let child = ws.arena.alloc(id, c);
                    ws.next_f.push((child_pd, child));
                }
            }
            let gen = fl * p;
            if gen > self.k {
                for (sc, d) in out.iter_mut().enumerate() {
                    let seg = &mut ws.next_f[sc * gen..(sc + 1) * gen];
                    keep_best_slice(seg, self.k, |a, b| a.0.to_f64().total_cmp(&b.0.to_f64()));
                    d.stats.nodes_pruned += (gen - self.k) as u64;
                }
                ws.frontier_f.clear();
                for sc in 0..b_count {
                    let start = sc * gen;
                    ws.frontier_f
                        .extend_from_slice(&ws.next_f[start..start + self.k]);
                }
                fl = self.k;
            } else {
                std::mem::swap(&mut ws.frontier_f, &mut ws.next_f);
                fl = gen;
            }
        }

        for (sc, d) in out.iter_mut().enumerate() {
            let seg = &ws.frontier_f[sc * fl..(sc + 1) * fl];
            let &(best_pd, best_id) = seg
                .iter()
                .min_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()))
                .expect("frontier is never empty");
            if tripped {
                let spent = d.stats.nodes_generated;
                // Rare path: reload this subcarrier's ȳ for the greedy
                // scalar completion.
                block.fill_prepared(sc, &frames[sc], prep);
                ws.arena.path_into(best_id, &mut ws.path_buf);
                let final_pd = greedy_tail(
                    prep,
                    EvalStrategy::Gemm,
                    &mut ws.path_buf,
                    best_pd,
                    &mut d.stats,
                    &mut ws.scratch,
                );
                d.stats.leaves_reached += 1;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = final_pd.to_f64();
                d.stats.flops += prep.prep_flops;
                d.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
                prep.indices_from_path_into(&ws.path_buf, &mut d.indices);
            } else {
                d.stats.leaves_reached = fl as u64;
                d.stats.radius_updates = 1;
                d.stats.final_radius_sqr = best_pd.to_f64();
                d.stats.flops += prep.prep_flops;
                ws.arena.path_into(best_id, &mut ws.path_buf);
                prep.indices_from_path_into(&ws.path_buf, &mut d.indices);
            }
        }
        true
    }
}

impl_detector_via_prepared!(KBestSd<F>, "SD K-best");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

    fn frames(n: usize, snr_db: f64, count: usize, seed: u64) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(Modulation::Qam4);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    #[test]
    fn full_width_k_is_ml_exact() {
        // K ≥ P^M keeps everything: exhaustive ML.
        let (c, frames) = frames(4, 6.0, 20, 120);
        let kb: KBestSd<f64> = KBestSd::new(c.clone(), 4usize.pow(4));
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(kb.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn workload_is_snr_independent() {
        let (c, lo) = frames(8, 4.0, 5, 121);
        let (_, hi) = frames(8, 20.0, 5, 121);
        let kb: KBestSd<f64> = KBestSd::new(c, 8);
        let n_lo: u64 = lo.iter().map(|f| kb.detect(f).stats.nodes_generated).sum();
        let n_hi: u64 = hi.iter().map(|f| kb.detect(f).stats.nodes_generated).sum();
        assert_eq!(n_lo, n_hi, "fixed complexity by construction");
    }

    #[test]
    fn larger_k_is_more_accurate() {
        let (c, frames) = frames(8, 8.0, 150, 122);
        let k2: KBestSd<f64> = KBestSd::new(c.clone(), 2);
        let k16: KBestSd<f64> = KBestSd::new(c.clone(), 16);
        let mut e2 = 0u64;
        let mut e16 = 0u64;
        for f in &frames {
            e2 += f.bit_errors(&k2.detect(f).indices, &c);
            e16 += f.bit_errors(&k16.detect(f).indices, &c);
        }
        assert!(e16 <= e2, "K=16 ({e16}) must not lose to K=2 ({e2})");
    }

    #[test]
    fn k_best_close_to_ml_at_moderate_k() {
        let (c, frames) = frames(6, 8.0, 100, 123);
        let kb: KBestSd<f64> = KBestSd::new(c.clone(), 16);
        let ml = MlDetector::new(c.clone());
        let mut e_kb = 0u64;
        let mut e_ml = 0u64;
        for f in &frames {
            e_kb += f.bit_errors(&kb.detect(f).indices, &c);
            e_ml += f.bit_errors(&ml.detect(f).indices, &c);
        }
        assert!(e_ml <= e_kb);
        assert!(
            e_kb <= e_ml * 3 + 20,
            "K=16 should be near-ML (kb={e_kb}, ml={e_ml})"
        );
    }

    #[test]
    fn batch_kernels_agree_exactly() {
        let (c, frames) = frames(7, 8.0, 10, 124);
        let blocked: KBestSd<f32> = KBestSd::new(c.clone(), 12);
        let parallel: KBestSd<f32> = KBestSd::new(c, 12).with_batch_algo(GemmAlgo::Parallel);
        for f in &frames {
            let a = blocked.detect(f);
            let b = parallel.detect(f);
            assert_eq!(a.indices, b.indices);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let (c, frames) = frames(6, 10.0, 10, 125);
        let kb: KBestSd<f64> = KBestSd::new(c.clone(), 8);
        let mut ws = SearchWorkspace::new();
        for f in &frames {
            let prep: Prepared<f64> = preprocess(f, &c);
            let fresh = kb.detect_prepared(&prep, f64::INFINITY);
            let reused = kb.detect_prepared_in(&prep, f64::INFINITY, &mut ws);
            assert_eq!(fresh.indices, reused.indices);
            assert_eq!(fresh.stats, reused.stats);
        }
    }

    #[test]
    #[should_panic(expected = "K must be positive")]
    fn zero_k_rejected() {
        let _ = KBestSd::<f64>::new(Constellation::new(Modulation::Qam4), 0);
    }
}
