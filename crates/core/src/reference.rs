//! Seed (path-cloning) search implementations, kept verbatim as baselines.
//!
//! The production searches in [`crate::best_first`], [`crate::bfs`],
//! [`crate::dfs`] and [`crate::kbest`] run on the slab arena of
//! [`crate::arena`] with batched GEMM expansion. These functions preserve
//! the original formulation — every open node owns its `Vec<usize>` path,
//! cloned per surviving child, with scalar per-node child evaluation — for
//! two purposes:
//!
//! * **differential testing**: property tests drive both implementations
//!   over random frames and require identical decoded indices and
//!   identical node counts (`tests/arena_vs_reference.rs`);
//! * **before/after benchmarking**: the expansion benches measure the
//!   arena + batched-GEMM speedup against these baselines
//!   (`crates/bench/benches/expansion.rs`).
//!
//! The fixed-point sweeps ([`fx_kbest_reference`], [`fx_fsd_reference`])
//! are oracles of the same kind for the quantized K-best and FSD engines:
//! every node re-sums its residual from its full path, as
//! [`FxPrepared::leaf_metric`] does, and every cut is a full sort.
//!
//! They are *not* part of the decoding API; nothing here is tuned.

use crate::detector::{Detection, DetectionStats, SearchQuality};
use crate::engine::DecodeBudget;
use crate::pd::{eval_children, sorted_children, EvalStrategy, PdScratch};
use crate::preprocess::Prepared;
use crate::quantized::{fx_level_ops, FxPrepared};
use crate::radius::InitialRadius;
use sd_math::fixed::MetricKind;
use sd_math::Float;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry of the reference best-first search (path-carrying).
struct RefOpenNode {
    pd: f64,
    path: Vec<usize>,
}

impl PartialEq for RefOpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.pd == other.pd
    }
}
impl Eq for RefOpenNode {}
impl PartialOrd for RefOpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefOpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .pd
            .total_cmp(&self.pd)
            .then_with(|| self.path.len().cmp(&other.path.len()))
    }
}

/// Seed globally best-first search (per-child `path.clone()`).
pub fn best_first_reference<F: Float>(
    prep: &Prepared<F>,
    radius_sqr: f64,
    eval: EvalStrategy,
) -> Detection {
    let m = prep.n_tx;
    let p = prep.order;
    let mut scratch = PdScratch::new(p, m);
    let mut stats = DetectionStats {
        per_level_generated: vec![0; m],
        ..Default::default()
    };
    let mut r2 = radius_sqr;
    let mut best: Option<(f64, Vec<usize>)> = None;

    loop {
        let mut heap = BinaryHeap::new();
        heap.push(RefOpenNode {
            pd: 0.0,
            path: Vec::new(),
        });
        while let Some(node) = heap.pop() {
            if let Some((best_pd, _)) = &best {
                if node.pd >= *best_pd {
                    break;
                }
            }
            let depth = node.path.len();
            stats.nodes_expanded += 1;
            stats.flops += eval_children(prep, &node.path, eval, &mut scratch);
            stats.nodes_generated += p as u64;
            stats.per_level_generated[depth] += p as u64;

            for c in 0..p {
                let child_pd = node.pd + scratch.increments[c].to_f64();
                let bound = best.as_ref().map_or(r2, |(b, _)| b.min(r2));
                if child_pd < bound {
                    if depth + 1 == m {
                        stats.leaves_reached += 1;
                        stats.radius_updates += 1;
                        let mut leaf = node.path.clone();
                        leaf.push(c);
                        best = Some((child_pd, leaf));
                    } else {
                        let mut path = node.path.clone();
                        path.push(c);
                        heap.push(RefOpenNode { pd: child_pd, path });
                    }
                } else {
                    stats.nodes_pruned += 1;
                }
            }
        }
        if best.is_some() {
            break;
        }
        r2 *= InitialRadius::RESTART_GROWTH;
        stats.restarts += 1;
        assert!(stats.restarts < 64, "radius failed to capture any leaf");
    }

    let (best_pd, best_path) = best.expect("loop exits only with a solution");
    stats.final_radius_sqr = best_pd;
    stats.flops += prep.prep_flops;
    let indices = prep.indices_from_path(&best_path);
    Detection { indices, stats }
}

/// Seed level-synchronous BFS (per-child `path.clone()`, scalar eval).
pub fn bfs_reference<F: Float>(
    prep: &Prepared<F>,
    radius_sqr: f64,
    max_frontier: usize,
) -> Detection {
    let m = prep.n_tx;
    let p = prep.order;
    let mut scratch = PdScratch::new(p, m);
    let mut stats = DetectionStats {
        per_level_generated: vec![0; m],
        ..Default::default()
    };
    let mut r2 = radius_sqr;

    'restart: loop {
        let mut frontier: Vec<(f64, Vec<usize>)> = vec![(0.0, Vec::new())];
        for depth in 0..m {
            let mut next: Vec<(f64, Vec<usize>)> =
                Vec::with_capacity(frontier.len().min(max_frontier) * p);
            for (pd, path) in &frontier {
                stats.nodes_expanded += 1;
                stats.flops += eval_children(prep, path, EvalStrategy::Gemm, &mut scratch);
                stats.nodes_generated += p as u64;
                stats.per_level_generated[depth] += p as u64;
                for c in 0..p {
                    let child_pd = pd + scratch.increments[c].to_f64();
                    if child_pd < r2 {
                        let mut child_path = path.clone();
                        child_path.push(c);
                        next.push((child_pd, child_path));
                    } else {
                        stats.nodes_pruned += 1;
                    }
                }
            }
            if next.is_empty() {
                r2 *= InitialRadius::RESTART_GROWTH;
                stats.restarts += 1;
                assert!(stats.restarts < 64, "radius failed to capture any leaf");
                continue 'restart;
            }
            if next.len() > max_frontier {
                next.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                stats.nodes_pruned += (next.len() - max_frontier) as u64;
                next.truncate(max_frontier);
            }
            frontier = next;
        }

        stats.leaves_reached += frontier.len() as u64;
        let (best_pd, best_path) = frontier
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty by construction");
        stats.radius_updates += 1;
        stats.final_radius_sqr = best_pd;
        stats.flops += prep.prep_flops;
        let indices = prep.indices_from_path(&best_path);
        return Detection { indices, stats };
    }
}

/// Seed K-best sweep (per-child `path.clone()`, scalar eval).
pub fn kbest_reference<F: Float>(prep: &Prepared<F>, k: usize) -> Detection {
    let m = prep.n_tx;
    let p = prep.order;
    let mut scratch = PdScratch::new(p, m);
    let mut stats = DetectionStats {
        per_level_generated: vec![0; m],
        ..Default::default()
    };

    let mut frontier: Vec<(F, Vec<usize>)> = vec![(F::ZERO, Vec::new())];
    for depth in 0..m {
        let mut next: Vec<(F, Vec<usize>)> = Vec::with_capacity(frontier.len() * p);
        for (pd, path) in &frontier {
            stats.nodes_expanded += 1;
            stats.flops += eval_children(prep, path, EvalStrategy::Gemm, &mut scratch);
            stats.nodes_generated += p as u64;
            stats.per_level_generated[depth] += p as u64;
            for (c, &inc) in scratch.increments.iter().enumerate() {
                let mut child = path.clone();
                child.push(c);
                next.push((*pd + inc, child));
            }
        }
        if next.len() > k {
            next.sort_unstable_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()));
            stats.nodes_pruned += (next.len() - k) as u64;
            next.truncate(k);
        }
        frontier = next;
    }

    stats.leaves_reached = frontier.len() as u64;
    let (best_pd, best_path) = frontier
        .into_iter()
        .min_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()))
        .expect("frontier is never empty");
    stats.radius_updates = 1;
    stats.final_radius_sqr = best_pd.to_f64();
    stats.flops += prep.prep_flops;
    let indices = prep.indices_from_path(&best_path);
    Detection { indices, stats }
}

/// Seed sorted/plain DFS (per-expansion `sorted_children` allocation and
/// increment clone).
pub fn dfs_reference<F: Float>(
    prep: &Prepared<F>,
    radius_sqr: f64,
    eval: EvalStrategy,
    sort: bool,
) -> Detection {
    struct RefSearch<'a, F: Float> {
        prep: &'a Prepared<F>,
        scratch: PdScratch<F>,
        stats: DetectionStats,
        path: Vec<usize>,
        best_path: Vec<usize>,
        best_metric: F,
        sort: bool,
        eval: EvalStrategy,
    }

    impl<F: Float> RefSearch<'_, F> {
        fn descend(&mut self, pd: F) {
            let depth = self.path.len();
            let m = self.prep.n_tx;
            let p = self.prep.order;
            self.stats.nodes_expanded += 1;
            self.stats.flops += eval_children(self.prep, &self.path, self.eval, &mut self.scratch);
            self.stats.nodes_generated += p as u64;
            self.stats.per_level_generated[depth] += p as u64;

            if self.sort {
                let children = sorted_children(&self.scratch.increments);
                for (rank, (inc, child)) in children.into_iter().enumerate() {
                    let child_pd = pd + inc;
                    if !(child_pd < self.best_metric) {
                        self.stats.nodes_pruned += (p - rank) as u64;
                        return;
                    }
                    self.visit(child, child_pd, depth, m);
                }
            } else {
                let increments = self.scratch.increments.clone();
                for (child, &inc) in increments.iter().enumerate() {
                    let child_pd = pd + inc;
                    if child_pd < self.best_metric {
                        self.visit(child, child_pd, depth, m);
                    } else {
                        self.stats.nodes_pruned += 1;
                    }
                }
            }
        }

        #[inline]
        fn visit(&mut self, child: usize, child_pd: F, depth: usize, m: usize) {
            if depth + 1 == m {
                self.stats.leaves_reached += 1;
                self.stats.radius_updates += 1;
                self.best_metric = child_pd;
                self.best_path.clear();
                self.best_path.extend_from_slice(&self.path);
                self.best_path.push(child);
            } else {
                self.path.push(child);
                self.descend(child_pd);
                self.path.pop();
            }
        }
    }

    let mut search = RefSearch {
        prep,
        scratch: PdScratch::new(prep.order, prep.n_tx),
        stats: DetectionStats {
            per_level_generated: vec![0; prep.n_tx],
            ..Default::default()
        },
        path: Vec::with_capacity(prep.n_tx),
        best_path: Vec::new(),
        best_metric: F::from_f64(radius_sqr),
        sort,
        eval,
    };
    let mut r2 = radius_sqr;
    loop {
        search.descend(F::ZERO);
        if !search.best_path.is_empty() {
            break;
        }
        r2 *= InitialRadius::RESTART_GROWTH;
        search.stats.restarts += 1;
        search.best_metric = F::from_f64(r2);
        assert!(
            search.stats.restarts < 64,
            "sphere radius failed to capture any leaf"
        );
    }
    let indices = prep.indices_from_path(&search.best_path);
    let mut stats = search.stats;
    stats.final_radius_sqr = search.best_metric.to_f64();
    stats.flops += prep.prep_flops;
    Detection { indices, stats }
}

/// Which children of a fixed-point level survive.
#[derive(Clone, Copy)]
enum FxCut {
    /// Keep the `K` best of the whole level.
    KBest(usize),
    /// Keep every child of the first `n_fe` levels, then each node's best.
    Fsd(usize),
}

/// Plain fixed-point K-best: the oracle of
/// [`QuantizedKBestSd`](crate::QuantizedKBestSd). Every candidate of a
/// level is sorted by (metric, generation index) and truncated to `k`;
/// `budget` is checked before each level, and a trip completes the best
/// survivor greedily, as the engine does.
pub fn fx_kbest_reference(
    prep: &Prepared<f64>,
    k: usize,
    metric: MetricKind,
    budget: &DecodeBudget,
) -> Detection {
    fx_sweep_reference(prep, FxCut::KBest(k), metric, budget)
}

/// Plain fixed-point FSD: the oracle of
/// [`QuantizedFsd`](crate::QuantizedFsd). The first `n_fe` levels keep
/// every child, later ones each node's child of least (increment, index).
pub fn fx_fsd_reference(
    prep: &Prepared<f64>,
    n_fe: usize,
    metric: MetricKind,
    budget: &DecodeBudget,
) -> Detection {
    fx_sweep_reference(prep, FxCut::Fsd(n_fe), metric, budget)
}

fn fx_sweep_reference(
    prep: &Prepared<f64>,
    cut: FxCut,
    metric: MetricKind,
    budget: &DecodeBudget,
) -> Detection {
    let mut fx = FxPrepared::new();
    fx.quantize_from(prep);
    let (m, p) = (prep.n_tx, prep.order);
    let mut stats = DetectionStats {
        per_level_generated: vec![0; m],
        ..Default::default()
    };
    let mut inc = vec![0i64; p];
    let expand = |path: &[usize], stats: &mut DetectionStats, inc: &mut [i64]| {
        let depth = path.len();
        stats.nodes_expanded += 1;
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        stats.flops += fx_level_ops(1, depth, p);
        fx.increments(path, metric, inc);
    };
    let argmin = |inc: &[i64]| (0..p).min_by_key(|&c| (inc[c], c)).expect("P > 0");

    let mut frontier: Vec<(i64, Vec<usize>)> = vec![(0, Vec::new())];
    let mut tripped = false;
    for depth in 0..m {
        if budget.tripped_after(stats.nodes_generated) {
            tripped = true;
            break;
        }
        // (metric, generation index, path)
        let mut next: Vec<(i64, usize, Vec<usize>)> = Vec::new();
        for (pos, (pd, path)) in frontier.iter().enumerate() {
            expand(path, &mut stats, &mut inc);
            let children: Vec<usize> = match cut {
                FxCut::Fsd(n_fe) if depth >= n_fe => {
                    stats.nodes_pruned += (p - 1) as u64;
                    vec![argmin(&inc)]
                }
                _ => (0..p).collect(),
            };
            for c in children {
                let mut child = path.clone();
                child.push(c);
                next.push((metric.combine(*pd, inc[c]), pos * p + c, child));
            }
        }
        if let FxCut::KBest(k) = cut {
            if next.len() > k {
                next.sort_by_key(|&(pd, gen, _)| (pd, gen));
                stats.nodes_pruned += (next.len() - k) as u64;
                next.truncate(k);
            }
        }
        frontier = next.into_iter().map(|(pd, _, path)| (pd, path)).collect();
    }

    let leaves = frontier.len() as u64;
    let (mut pd, mut path) = frontier
        .into_iter()
        .enumerate()
        .min_by_key(|(pos, (pd, _))| (*pd, *pos))
        .map(|(_, node)| node)
        .expect("frontier is never empty");
    if tripped {
        let spent = stats.nodes_generated;
        while path.len() < m {
            expand(&path, &mut stats, &mut inc);
            let c = argmin(&inc);
            pd = metric.combine(pd, inc[c]);
            path.push(c);
        }
        stats.leaves_reached = 1;
        stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
    } else {
        stats.leaves_reached = leaves;
    }
    stats.radius_updates = 1;
    stats.final_radius_sqr = fx.metric_to_f64(metric, pd);
    stats.flops += prep.prep_flops;
    let indices = prep.indices_from_path(&path);
    Detection { indices, stats }
}
