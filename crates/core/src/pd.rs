//! Partial-distance (PD) evaluation — Phase 2 of the paper's pipeline.
//!
//! Expanding a node at depth `ℓ` (antenna `i = M−1−ℓ`) generates the `P`
//! children obtained by trying every constellation point for `s_i`; each
//! child's PD increment is (Eq. 6)
//!
//! ```text
//! g = | ȳ_i − Σ_{j ≥ i} r_{ij} s_j |²
//! ```
//!
//! Two evaluation strategies are provided:
//!
//! * [`EvalStrategy::Gemm`] — the paper's compute-bound refactoring: the
//!   row block `R[i, i..M]` is multiplied against the *tree-state matrix*
//!   `S` whose `P` columns are the candidate symbol vectors. The suffix
//!   sum is recomputed for every child — more flops, but one dense
//!   Level-3 kernel per expansion, which is what the FPGA systolic array
//!   and the MKL/GPU baselines execute.
//! * [`EvalStrategy::Incremental`] — the classic memory-bound SD
//!   evaluation: the suffix sum `b = ȳ_i − Σ_{j>i} r_{ij} s_j` is computed
//!   once and each child costs one scalar MAC. Used as the ablation
//!   contrast to quantify what the refactoring trades.
//!
//! Both produce identical increments (up to rounding) and are
//! cross-checked by tests.
//!
//! ## Arena and batched entry points
//!
//! The arena-based searches ([`crate::arena`]) never materialize paths, so
//! [`eval_children_from_arena`] gathers the suffix straight off the parent
//! chain. Level-synchronous searches (BFS, K-best) go further with
//! [`eval_children_batch`]: the tree-state matrices of up to
//! [`MAX_BATCH`] open nodes at the same level form one `k × (B·P)` suffix
//! operand — held in compressed broadcast form, since each node's fixed
//! suffix symbol spans its `P` child columns — the output row is seeded
//! with the level-constant diagonal products `r_ii·ω_c`, and a *single*
//! [`sd_math::gemm_broadcast_acc_into`] call accumulates the suffix terms
//! — the software realization of the paper's "one GEMM per level" claim
//! instead of one small GEMM per node. The seed equals the scalar loop's
//! first `mul_acc` from zero and the kernels accumulate each output
//! column left-to-right over the inner dimension, exactly like the scalar
//! loop here, so the batched increments are bit-identical to per-node
//! evaluation.

use crate::arena::NodeArena;
use crate::preprocess::Prepared;
use sd_math::{gemm_acc_into, gemm_broadcast_acc_into, Complex, Float, GemmAlgo};
use serde::{Deserialize, Serialize};

/// Child PD evaluation strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// GEMM-based, compute-bound (the paper's formulation).
    #[default]
    Gemm,
    /// Incremental, memory-bound (classic SD).
    Incremental,
}

/// Cap on nodes folded into one batched GEMM call. Bounds the per-chunk
/// output row `E` to `1 × (MAX_BATCH·P)` and the compressed tree-state
/// operand to `M × MAX_BATCH` — tens of KiB, matching the paper's
/// double-buffered on-chip tile budget — while leaving the kernel enough
/// columns to amortize its per-tile setup.
pub const MAX_BATCH: usize = 128;

/// Scratch buffers reused across expansions of one decode — the software
/// analogue of the FPGA's double-buffered BRAM blocks.
pub struct PdScratch<F: Float> {
    /// Per-child metric increments (length `P`).
    pub increments: Vec<F>,
    /// Per-child increments of a batched evaluation, laid out
    /// `[node 0's P children, node 1's P children, …]`.
    pub batch_increments: Vec<F>,
    /// Suffix symbol values `s_{i+1} … s_{M−1}` of the current path.
    suffix: Vec<Complex<F>>,
    /// Batched tree-state operand `S` in compressed broadcast form,
    /// `k × B`: entry `(off, bi)` is node `bi`'s fixed symbol for suffix
    /// level `off`, implicitly spanning the node's `P` child columns.
    s_mat: sd_math::Matrix<F>,
    /// Width-`P` materialization of `s_mat`, `k × (B·P)` — only built by
    /// the [`GemmAlgo::Naive`] oracle path.
    s_wide: sd_math::Matrix<F>,
    /// Batched GEMM output `E`, `1 × (B·P)`, seeded with the diagonal
    /// products `r_ii·ω_c` before the suffix rows accumulate.
    e_mat: sd_math::Matrix<F>,
    /// The level's suffix coefficients `R[i, i+1..M]`, `1 × k`.
    a_tail: sd_math::Matrix<F>,
    /// Diagonal products `r_ii·ω_c`, one per constellation point.
    seeds: Vec<Complex<F>>,
}

impl<F: Float> PdScratch<F> {
    /// Allocate scratch for a problem with branching factor `order`.
    pub fn new(order: usize, n_tx: usize) -> Self {
        let mut s = Self::empty();
        s.ensure(order, n_tx);
        s
    }

    /// Zero-capacity scratch; size it later with [`PdScratch::ensure`].
    pub fn empty() -> Self {
        PdScratch {
            increments: Vec::new(),
            batch_increments: Vec::new(),
            suffix: Vec::new(),
            s_mat: sd_math::Matrix::zeros(0, 0),
            s_wide: sd_math::Matrix::zeros(0, 0),
            e_mat: sd_math::Matrix::zeros(0, 0),
            a_tail: sd_math::Matrix::zeros(0, 0),
            seeds: Vec::new(),
        }
    }

    /// Size the buffers for branching factor `order` and tree depth
    /// `n_tx`, allocating only on growth.
    pub fn ensure(&mut self, order: usize, n_tx: usize) {
        self.increments.clear();
        self.increments.resize(order, F::ZERO);
        if self.suffix.capacity() < n_tx {
            self.suffix.reserve(n_tx - self.suffix.capacity());
        }
    }
}

/// Evaluate the `P` child PD increments of the node identified by `path`.
///
/// `path[d]` is the constellation index fixed at depth `d`, i.e. antenna
/// `M−1−d`. The expansion happens at depth `path.len()`. Returns the
/// number of real flops charged; increments land in
/// `scratch.increments`.
pub fn eval_children<F: Float>(
    prep: &Prepared<F>,
    path: &[usize],
    strategy: EvalStrategy,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let m = prep.n_tx;
    let depth = path.len();
    assert!(depth < m, "cannot expand a leaf");
    // Gather the already-fixed suffix symbol values s_{i+1} … s_{M−1},
    // deepest-first. path[d] fixed antenna M−1−d, so antenna j = M−1−d
    // ⇔ d = M−1−j: walking j upward from i+1 is walking d downward.
    scratch.suffix.clear();
    for off in 0..depth {
        scratch.suffix.push(prep.points[path[depth - 1 - off]]);
    }
    eval_suffix(
        prep,
        depth,
        strategy,
        &scratch.suffix,
        &mut scratch.increments,
    )
}

/// [`eval_children`] for an arena node — the suffix is read straight off
/// the parent chain (which yields symbols deepest-first, exactly the PD
/// suffix order), so no path is ever materialized.
pub fn eval_children_from_arena<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    node: u32,
    strategy: EvalStrategy,
    scratch: &mut PdScratch<F>,
) -> u64 {
    let m = prep.n_tx;
    let depth = arena.depth(node);
    assert!(depth < m, "cannot expand a leaf");
    scratch.suffix.clear();
    for sym in arena.ancestry(node) {
        scratch.suffix.push(prep.points[sym]);
    }
    eval_suffix(
        prep,
        depth,
        strategy,
        &scratch.suffix,
        &mut scratch.increments,
    )
}

/// Shared core of the scalar entry points: `suffix` holds
/// `s_{i+1} … s_{M−1}` (deepest-first); evaluate all `P` increments into
/// `increments`.
fn eval_suffix<F: Float>(
    prep: &Prepared<F>,
    depth: usize,
    strategy: EvalStrategy,
    suffix: &[Complex<F>],
    increments: &mut [F],
) -> u64 {
    let m = prep.n_tx;
    let i = m - 1 - depth; // antenna index fixed by this expansion
    let p = prep.order;
    debug_assert_eq!(increments.len(), p);
    debug_assert_eq!(suffix.len(), depth);

    let ybar_i = prep.ybar[i];
    let r_row = prep.r.row(i);
    let r_ii = r_row[i];

    match strategy {
        EvalStrategy::Gemm => {
            // One (1 × k+1) · (k+1 × P) product: for every child, the full
            // suffix sum is recomputed inside the dense kernel.
            for (c, inc) in increments.iter_mut().enumerate() {
                let mut e = Complex::zero();
                Complex::mul_acc(&mut e, r_ii, prep.points[c]);
                for (off, s) in suffix.iter().enumerate() {
                    let j = i + 1 + off;
                    Complex::mul_acc(&mut e, r_row[j], *s);
                }
                *inc = (ybar_i - e).norm_sqr();
            }
            // 8 real flops per complex MAC, (depth+1) MACs per child, plus
            // the subtraction + norm (≈ 5 flops) per child.
            (p as u64) * (8 * (depth as u64 + 1) + 5)
        }
        EvalStrategy::Incremental => {
            // Suffix sum once …
            let mut b = ybar_i;
            for (off, s) in suffix.iter().enumerate() {
                let j = i + 1 + off;
                let delta = r_row[j] * *s;
                b -= delta;
            }
            // … then one MAC per child.
            for (c, inc) in increments.iter_mut().enumerate() {
                let e = r_ii * prep.points[c];
                *inc = (b - e).norm_sqr();
            }
            8 * depth as u64 + (p as u64) * 13
        }
    }
}

/// The ordered-expansion kernel of the depth-first searches, step one:
/// the `P` child increments of a depth-`depth` node, natural order.
/// `sym` holds the path's symbols by antenna, so the node's suffix
/// `s_{i+1} … s_{M−1}` is `sym[i+1..M]`. `LANES` is the order when it is
/// 2, 4 or 16 (else `0`): then [`EvalStrategy::Gemm`] runs in lanes
/// ([`gemm_lanes`]), every other case runs the scalar loop of
/// [`eval_children`] — same bits, same flops charged.
pub(crate) fn eval_lanes<F: Float, const LANES: usize>(
    prep: &Prepared<F>,
    depth: usize,
    sym: &[Complex<F>],
    strategy: EvalStrategy,
    increments: &mut [F],
) -> u64 {
    let suffix = &sym[prep.n_tx - depth..prep.n_tx];
    if LANES > 0 && strategy == EvalStrategy::Gemm {
        gemm_lanes::<F, LANES>(prep, suffix, as_lanes(increments))
    } else {
        eval_suffix(prep, depth, strategy, suffix, increments)
    }
}

#[inline(always)]
fn as_lanes<T, const P: usize>(s: &mut [T]) -> &mut [T; P] {
    s.try_into().expect("lane count is the constellation order")
}

/// [`EvalStrategy::Gemm`] with the `P` children in structure-of-arrays
/// lanes: every suffix term updates all lanes at once, and each lane runs
/// its child's exact [`Complex::mul_acc`] sequence — the diagonal
/// `r_ii·ω_c` from zero, then the suffix left to right — so its increment
/// is bit-identical to the scalar loop's.
#[inline(always)]
fn gemm_lanes<F: Float, const P: usize>(
    prep: &Prepared<F>,
    suffix: &[Complex<F>],
    increments: &mut [F; P],
) -> u64 {
    let depth = suffix.len();
    let i = prep.n_tx - 1 - depth;
    let r_row = &prep.r.row(i)[i..];
    let (mut re, mut im) = ([F::ZERO; P], [F::ZERO; P]);
    let mut mul_acc = |c: usize, a, b| {
        let mut e = Complex::new(re[c], im[c]);
        Complex::mul_acc(&mut e, a, b);
        (re[c], im[c]) = (e.re, e.im);
    };
    for (c, &point) in prep.points[..P].iter().enumerate() {
        mul_acc(c, r_row[0], point);
    }
    for (&r, &s) in r_row[1..].iter().zip(suffix) {
        for c in 0..P {
            mul_acc(c, r, s);
        }
    }
    for (c, inc) in increments.iter_mut().enumerate() {
        *inc = (prep.ybar[i] - Complex::new(re[c], im[c])).norm_sqr();
    }
    (P as u64) * (8 * (depth as u64 + 1) + 5)
}

/// The ordered-expansion kernel, step two — the software sort unit
/// (Fig. 3): `increments`' children into `inc`/`child` in ascending
/// `(increment, index)` order, increments compared by `total_cmp`, so a
/// NaN lands where [`sorted_children`] puts it (a positive NaN last). With
/// a lane width each child's rank counts the children ordering before it
/// — `P²` branch-free compares and a scatter; `LANES == 0` runs a
/// comparison sort. The pair order is total, so both give the one order
/// [`sorted_children`] gives.
pub(crate) fn order_lanes<F: Float, const LANES: usize>(
    increments: &[F],
    inc: &mut [F],
    child: &mut [u32],
) {
    if LANES > 0 {
        return rank_lanes::<F, LANES>(increments, as_lanes(inc), as_lanes(child));
    }
    child.iter_mut().zip(0..).for_each(|(slot, c)| *slot = c);
    child.sort_unstable_by_key(|&c| (total_key(increments[c as usize]), c));
    for (slot, &c) in inc.iter_mut().zip(child.iter()) {
        *slot = increments[c as usize];
    }
}

#[inline(always)]
fn rank_lanes<F: Float, const P: usize>(increments: &[F], inc: &mut [F; P], child: &mut [u32; P]) {
    let key: [i64; P] = std::array::from_fn(|c| total_key(increments[c]));
    // rank[c] counts the children j with (key[j], j) < (key[c], c); the
    // inner loop runs across all lanes c at once.
    let mut rank = [0usize; P];
    for j in 0..P {
        for c in 0..P {
            rank[c] += ((key[j] < key[c]) | ((key[j] == key[c]) & (j < c))) as usize;
        }
    }
    for c in 0..P {
        inc[rank[c]] = increments[c];
        child[rank[c]] = c as u32;
    }
}

/// The integer image of `f64::total_cmp`: `total_key(a) < total_key(b)`
/// exactly when `a.to_f64().total_cmp(&b.to_f64())` is `Less`.
#[inline(always)]
fn total_key<F: Float>(x: F) -> i64 {
    let bits = x.to_f64().to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Evaluate the children of a whole *level* of arena nodes with batched
/// GEMM: the tree-state matrices of all `B = nodes.len()` open nodes form
/// one `k × (B·P)` suffix operand `S`, held in compressed broadcast form
/// (`k × B` — each node's fixed suffix symbol spans its `P` child
/// columns); the output `E` is seeded with the level-constant diagonal
/// products `r_ii·ω_c` and the suffix rows accumulate on top via one
/// [`sd_math::gemm_broadcast_acc_into`] call against `A' = R[i, i+1..M]`,
/// in chunks of at most [`MAX_BATCH`] nodes. The compressed operand is
/// what makes the batch fast: materializing `S` costs `P ×` more stores
/// than the whole fma chain (see `sd-math`'s kernel docs), and the
/// broadcast kernel is bit-identical to materializing
/// (`sd_math::fill_tiles`) and calling [`sd_math::gemm_acc_into`] — a
/// property both crates' tests pin down exactly.
///
/// All nodes must sit at the same tree depth (level-synchronous searches
/// guarantee this). Results land in `scratch.batch_increments`, child `c`
/// of `nodes[b]` at index `b·P + c`, and are bit-identical to evaluating
/// each node with [`eval_children_from_arena`] under
/// [`EvalStrategy::Gemm`]: the seed is the scalar loop's first `mul_acc`
/// from zero, and every kernel accumulates each output column
/// left-to-right over the inner dimension, matching the scalar loop's
/// summation order term for term.
///
/// Returns the flops charged — exactly `B ×` the per-node GEMM formula,
/// so batching never changes [`crate::DetectionStats`] accounting.
pub fn eval_children_batch<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    nodes: &[u32],
    algo: GemmAlgo,
    scratch: &mut PdScratch<F>,
) -> u64 {
    assert!(!nodes.is_empty(), "empty batch");
    let ybar_i = prep.ybar[prep.n_tx - 1 - arena.depth(nodes[0])];
    eval_batch(prep, arena, nodes, MAX_BATCH, algo, scratch, |_| ybar_i)
}

/// Cross-subcarrier fused form of [`eval_children_batch`]: one GEMM batch
/// per tree level for a whole coherence block.
///
/// `nodes` stacks the same-depth frontiers of `nodes.len() / stride`
/// subcarriers, subcarrier-major with exactly `stride` nodes each;
/// `ybars[sc]` is subcarrier `sc`'s received component `ȳ_i` for this
/// level. All subcarriers must share `prep`'s channel factorization
/// (`R`, `points` and the seeds) — the coherence-block
/// invariant — because the GEMM operand stacks their tree states against
/// the ONE suffix row `A' = R[i, i+1..M]`.
///
/// Exactness: ȳ never enters the GEMM. Every output column accumulates
/// independently (the stacking lemma pinned by
/// [`sd_math::gemm_broadcast_acc_stacked_into`]), and the per-subcarrier
/// ȳ is subtracted column-wise afterwards, so node `bi`'s increments are
/// bit-identical to a per-subcarrier [`eval_children_batch`] call on its
/// own frontier — chunk boundaries included, since chunking only splits
/// columns. Chunks are drawn at whole-subcarrier granularity (the largest
/// multiple of `stride` under [`MAX_BATCH`], or one subcarrier when
/// `stride` exceeds it) so each kernel call is a clean stack of blocks.
///
/// Returns the flops charged for the whole fused level — linear in the
/// node count, so callers can attribute `stride · P · (8(depth+1) + 5)`
/// to each subcarrier and reproduce the per-subcarrier accounting
/// exactly.
pub fn eval_children_batch_fused<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    nodes: &[u32],
    ybars: &[Complex<F>],
    stride: usize,
    algo: GemmAlgo,
    scratch: &mut PdScratch<F>,
) -> u64 {
    assert!(stride > 0, "empty per-subcarrier frontier");
    assert_eq!(
        nodes.len(),
        ybars.len() * stride,
        "fused batch must stack equal frontiers"
    );
    // Whole subcarriers per chunk: ⌊MAX_BATCH / stride⌋ of them, floored
    // at one so oversized frontiers still fuse (one block per call).
    let chunk = (MAX_BATCH / stride).max(1) * stride;
    eval_batch(prep, arena, nodes, chunk, algo, scratch, |bi| {
        ybars[bi / stride]
    })
}

/// The shared body of [`eval_children_batch`] and
/// [`eval_children_batch_fused`]: one accumulate-GEMM per chunk of at
/// most `chunk` nodes, then node `bi`'s `P` columns subtracted from
/// `ybar_of(bi)`.
fn eval_batch<F: Float>(
    prep: &Prepared<F>,
    arena: &NodeArena,
    nodes: &[u32],
    chunk: usize,
    algo: GemmAlgo,
    scratch: &mut PdScratch<F>,
    ybar_of: impl Fn(usize) -> Complex<F>,
) -> u64 {
    let m = prep.n_tx;
    let p = prep.order;
    assert!(!nodes.is_empty(), "empty batch");
    let depth = arena.depth(nodes[0]);
    assert!(depth < m, "cannot expand a leaf");
    // Depth `depth` fixes antenna `i = M − 1 − depth`, and its GEMM row
    // operand is `R`'s row `i` from the diagonal on: `[r_ii, A']`.
    let i = m - 1 - depth;
    let a_row = &prep.r.row(i)[i..];
    let r_ii = a_row[0];

    // The diagonal term r_ii·ω_c is the same for every node of the level:
    // compute the P seed products once (the scalar loop's first
    // `mul_acc` from zero, so seeding E with them and accumulating the
    // suffix rows is bit-identical to the full per-node product).
    scratch.seeds.clear();
    for &point in prep.points.iter() {
        let mut e = Complex::zero();
        Complex::mul_acc(&mut e, r_ii, point);
        scratch.seeds.push(e);
    }
    // The level's suffix coefficients A' = R[i, i+1..M].
    scratch.a_tail.resize_for_overwrite(1, depth);
    scratch.a_tail.as_mut_slice().copy_from_slice(&a_row[1..]);

    // Grow-only resize: every element is overwritten chunk by chunk below.
    if scratch.batch_increments.len() != nodes.len() * p {
        scratch.batch_increments.clear();
        scratch.batch_increments.resize(nodes.len() * p, F::ZERO);
    }

    for (chunk_idx, chunk_ids) in nodes.chunks(chunk).enumerate() {
        let b = chunk_ids.len();
        let n = b * p;
        // Every S entry and every E entry is written below, so neither
        // operand pays `resize`'s zero-fill pass.
        scratch.s_mat.resize_for_overwrite(depth, b);
        scratch.e_mat.resize_for_overwrite(1, n);
        // Gather each node's suffix (ancestry is deepest-first = the PD
        // suffix order) straight into the compressed operand: row `off`,
        // column `bi` holds node `bi`'s fixed symbol for suffix level
        // `off`, implicitly spanning the node's P child columns.
        let s = scratch.s_mat.as_mut_slice();
        for (bi, &node) in chunk_ids.iter().enumerate() {
            debug_assert_eq!(arena.depth(node), depth, "batch must be level-synchronous");
            for (off, sym) in arena.ancestry(node).enumerate() {
                s[off * b + bi] = prep.points[sym];
            }
        }
        // Seed E with the diagonal products, tiled across the batch.
        for tile in scratch.e_mat.as_mut_slice().chunks_exact_mut(p) {
            tile.copy_from_slice(&scratch.seeds);
        }
        // One accumulate-GEMM per level: E += A' × (S ⊗ 1ᵀ_P). At the
        // root (depth 0) the operands are empty and E is already the
        // answer. `Naive` materializes the width-P operand and runs the
        // reference kernel — the oracle formulation the fast paths are
        // tested against; `Blocked`/`Parallel` consume the compressed
        // operand directly.
        match algo {
            GemmAlgo::Naive => {
                scratch.s_wide.resize_for_overwrite(depth, n);
                let sw = scratch.s_wide.as_mut_slice();
                let sv = scratch.s_mat.as_slice();
                for off in 0..depth {
                    sd_math::fill_tiles(
                        &mut sw[off * n..(off + 1) * n],
                        &sv[off * b..(off + 1) * b],
                        p,
                    );
                }
                gemm_acc_into(&scratch.a_tail, &scratch.s_wide, &mut scratch.e_mat, algo);
            }
            GemmAlgo::Blocked | GemmAlgo::Parallel => {
                gemm_broadcast_acc_into(&scratch.a_tail, &scratch.s_mat, p, &mut scratch.e_mat);
            }
        }
        let e = scratch.e_mat.as_slice();
        let base = chunk_idx * chunk;
        let out = &mut scratch.batch_increments[base * p..base * p + n];
        for (bi, (node_out, node_e)) in out.chunks_exact_mut(p).zip(e.chunks_exact(p)).enumerate() {
            let ybar_i = ybar_of(base + bi);
            for (o, &ev) in node_out.iter_mut().zip(node_e) {
                *o = (ybar_i - ev).norm_sqr();
            }
        }
    }

    (nodes.len() as u64) * (p as u64) * (8 * (depth as u64 + 1) + 5)
}

/// Greedy (successive-interference-cancellation) completion of a partial
/// path: extend `path` to a leaf by taking the locally best child at each
/// remaining level, charging the search stats as it goes. Returns the
/// completed leaf's partial distance, starting from `pd0`.
///
/// The one best-so-far finisher of every budget-truncated float search;
/// the per-subcarrier and fused block paths both call it, which keeps
/// their truncated outputs bit-identical. Ties take the lowest child
/// index (strict `<` scan).
pub(crate) fn greedy_tail<F: Float>(
    prep: &Prepared<F>,
    eval: EvalStrategy,
    path: &mut Vec<usize>,
    pd0: F,
    stats: &mut crate::detector::DetectionStats,
    scratch: &mut PdScratch<F>,
) -> F {
    let m = prep.n_tx;
    let p = prep.order;
    let mut pd = pd0;
    for depth in path.len()..m {
        stats.flops += eval_children(prep, path, eval, scratch);
        stats.nodes_expanded += 1;
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        let mut best_c = 0usize;
        let mut best_inc = scratch.increments[0];
        for (c, &inc) in scratch.increments.iter().enumerate().skip(1) {
            if inc < best_inc {
                best_c = c;
                best_inc = inc;
            }
        }
        pd += best_inc;
        path.push(best_c);
    }
    pd
}

/// Sort child indices ascending by increment — the paper's sorted
/// insertion (Fig. 3) that biases the traversal toward promising leaves.
/// Returns `(increment, child_index)` pairs. Increments compare by
/// `total_cmp`, so a NaN (possible in reduced precision) orders instead
/// of panicking: a positive NaN last, a negative one first.
pub fn sorted_children<F: Float>(increments: &[F]) -> Vec<(F, usize)> {
    let mut order: Vec<(F, usize)> = increments.iter().copied().zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.to_f64().total_cmp(&b.0.to_f64()).then(a.1.cmp(&b.1)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::NIL;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{Constellation, FrameData, Modulation};

    fn setup(n: usize, m: Modulation, seed: u64) -> (Constellation, Prepared<f64>) {
        let c = Constellation::new(m);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = FrameData::generate(n, n, &c, 0.2, &mut rng);
        let prep = preprocess(&f, &c);
        (c, prep)
    }

    #[test]
    fn strategies_agree() {
        let (_, prep) = setup(6, Modulation::Qam16, 1);
        let mut s1 = PdScratch::new(16, 6);
        let mut s2 = PdScratch::new(16, 6);
        let paths: [&[usize]; 4] = [&[], &[3], &[3, 7], &[0, 15, 8, 2, 11]];
        for path in paths {
            eval_children(&prep, path, EvalStrategy::Gemm, &mut s1);
            eval_children(&prep, path, EvalStrategy::Incremental, &mut s2);
            for (a, b) in s1.increments.iter().zip(s2.increments.iter()) {
                assert!((a - b).abs() < 1e-10, "path {path:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn arena_eval_is_bit_identical_to_path_eval() {
        let (_, prep) = setup(6, Modulation::Qam16, 6);
        let mut arena = NodeArena::new();
        let mut s1 = PdScratch::new(16, 6);
        let mut s2 = PdScratch::new(16, 6);
        let path = [0usize, 15, 8, 2, 11];
        let mut id = NIL;
        for strategy in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            for depth in 0..=path.len() {
                let f1 = eval_children(&prep, &path[..depth], strategy, &mut s1);
                let f2 = eval_children_from_arena(&prep, &arena, id, strategy, &mut s2);
                assert_eq!(f1, f2, "flops must match");
                assert_eq!(s1.increments, s2.increments, "depth {depth}");
                if depth < path.len() {
                    id = arena.alloc(id, path[depth]);
                }
            }
            arena.clear();
            id = NIL;
        }
    }

    #[test]
    fn batched_eval_is_bit_identical_per_node() {
        // A level of heterogeneous nodes: batch once, compare every node's
        // slice against its scalar arena evaluation, bit for bit.
        let (_, prep) = setup(7, Modulation::Qam16, 7);
        let p = 16;
        let mut arena = NodeArena::new();
        let mut nodes = Vec::new();
        for c0 in 0..8 {
            let a = arena.alloc(NIL, c0);
            let b = arena.alloc(a, (c0 + 5) % p);
            nodes.push(arena.alloc(b, (3 * c0) % p));
        }
        let mut batch = PdScratch::new(p, 7);
        let mut scalar = PdScratch::new(p, 7);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let flops = eval_children_batch(&prep, &arena, &nodes, algo, &mut batch);
            let mut scalar_flops = 0;
            for (bi, &node) in nodes.iter().enumerate() {
                scalar_flops +=
                    eval_children_from_arena(&prep, &arena, node, EvalStrategy::Gemm, &mut scalar);
                for c in 0..p {
                    assert_eq!(
                        batch.batch_increments[bi * p + c],
                        scalar.increments[c],
                        "{algo:?} node {bi} child {c} must be bit-identical"
                    );
                }
            }
            assert_eq!(
                flops, scalar_flops,
                "{algo:?}: batching must not change accounting"
            );
        }
    }

    #[test]
    fn batched_eval_chunks_beyond_max_batch() {
        // More level-1 nodes than MAX_BATCH forces the chunk loop; QAM-4
        // at depth 1 keeps it cheap (root fan-out repeated).
        let (_, prep) = setup(4, Modulation::Qam4, 8);
        let p = 4;
        let mut arena = NodeArena::new();
        let nodes: Vec<u32> = (0..MAX_BATCH + 37)
            .map(|i| arena.alloc(NIL, i % p))
            .collect();
        let mut batch = PdScratch::new(p, 4);
        let mut scalar = PdScratch::new(p, 4);
        eval_children_batch(&prep, &arena, &nodes, GemmAlgo::Blocked, &mut batch);
        assert_eq!(batch.batch_increments.len(), nodes.len() * p);
        for (bi, &node) in nodes.iter().enumerate() {
            eval_children_from_arena(&prep, &arena, node, EvalStrategy::Gemm, &mut scalar);
            assert_eq!(
                &batch.batch_increments[bi * p..(bi + 1) * p],
                &scalar.increments[..],
                "chunk boundary node {bi}"
            );
        }
    }

    #[test]
    fn fused_eval_is_bit_identical_per_subcarrier() {
        // Stack several subcarriers' frontiers (each with its own ȳ) and
        // compare every subcarrier's slice against its own
        // eval_children_batch run — bit for bit, across chunk boundaries.
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 6;
        let p = 4;
        let base = FrameData::generate(n, n, &c, 0.1, &mut rng);
        // Per-subcarrier preps sharing one H: regenerate y on a fixed H.
        let preps: Vec<Prepared<f64>> = (0..5)
            .map(|_| {
                let mut f = FrameData::generate(n, n, &c, 0.1, &mut rng);
                f.h = base.h.clone();
                preprocess(&f, &c)
            })
            .collect();
        // stride chosen so MAX_BATCH is not a multiple: forces the fused
        // chunking to realign at whole-subcarrier boundaries.
        let stride = 48;
        let mut arena = NodeArena::new();
        let mut nodes = Vec::new();
        for sc in 0..preps.len() {
            for i in 0..stride {
                let a = arena.alloc(NIL, (sc + i) % p);
                let b = arena.alloc(a, (3 * i) % p);
                nodes.push(arena.alloc(b, (i + 2 * sc) % p));
            }
        }
        let depth = 3;
        let i_ant = n - 1 - depth;
        let ybars: Vec<_> = preps.iter().map(|pr| pr.ybar[i_ant]).collect();
        let mut fused = PdScratch::new(p, n);
        let mut per_sc = PdScratch::new(p, n);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let flops = eval_children_batch_fused(
                &preps[0], &arena, &nodes, &ybars, stride, algo, &mut fused,
            );
            let mut want_flops = 0;
            for (sc, pr) in preps.iter().enumerate() {
                want_flops += eval_children_batch(
                    pr,
                    &arena,
                    &nodes[sc * stride..(sc + 1) * stride],
                    algo,
                    &mut per_sc,
                );
                assert_eq!(
                    &fused.batch_increments[sc * stride * p..(sc + 1) * stride * p],
                    &per_sc.batch_increments[..],
                    "{algo:?} subcarrier {sc} must be bit-identical"
                );
            }
            assert_eq!(
                flops, want_flops,
                "{algo:?}: fusion must not change accounting"
            );
        }
    }

    #[test]
    fn increments_match_full_metric_difference() {
        // Summing increments along a root-to-leaf path must equal the full
        // metric of the leaf (minus the constant tail).
        let (_, prep) = setup(5, Modulation::Qam4, 2);
        let mut scratch = PdScratch::new(4, 5);
        let leaf = [2usize, 0, 3, 1, 2]; // depth order (antenna 4 .. 0)
        let mut pd = 0.0f64;
        for depth in 0..5 {
            eval_children(&prep, &leaf[..depth], EvalStrategy::Gemm, &mut scratch);
            pd += scratch.increments[leaf[depth]];
        }
        // Convert path (depth order) to antenna order for full_metric.
        let mut indices = vec![0usize; 5];
        for (d, &idx) in leaf.iter().enumerate() {
            indices[5 - 1 - d] = idx;
        }
        let full = prep.full_metric(&indices);
        assert!(
            (pd + prep.tail_energy - full).abs() < 1e-9,
            "pd sum {pd} + tail != {full}"
        );
    }

    #[test]
    fn gemm_charges_more_flops_at_depth() {
        let (_, prep) = setup(8, Modulation::Qam4, 3);
        let mut scratch = PdScratch::new(4, 8);
        let path = vec![0usize, 1, 2, 3, 0, 1];
        let f_gemm = eval_children(&prep, &path, EvalStrategy::Gemm, &mut scratch);
        let f_inc = eval_children(&prep, &path, EvalStrategy::Incremental, &mut scratch);
        assert!(
            f_gemm > f_inc,
            "GEMM refactoring must be compute-heavier: {f_gemm} vs {f_inc}"
        );
    }

    #[test]
    fn root_expansion_uses_only_diagonal() {
        // At the root, increment for child c is |ȳ_{M−1} − r_{M−1,M−1}·ω_c|².
        let (_, prep) = setup(4, Modulation::Qam4, 4);
        let mut scratch = PdScratch::new(4, 4);
        eval_children(&prep, &[], EvalStrategy::Gemm, &mut scratch);
        let i = 3;
        for c in 0..4 {
            let expected = (prep.ybar[i] - prep.r[(i, i)] * prep.points[c]).norm_sqr();
            assert!((scratch.increments[c] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn sorted_children_is_ascending_and_stable() {
        let incs = vec![3.0f64, 1.0, 2.0, 1.0];
        let sorted = sorted_children(&incs);
        assert_eq!(
            sorted.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![1, 3, 2, 0],
            "ties broken by index"
        );
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn sorted_children_tolerates_nan() {
        // A NaN increment (overflow in reduced precision) must order last,
        // not panic the decode.
        let incs = vec![2.0f64, f64::NAN, 1.0];
        let sorted = sorted_children(&incs);
        assert_eq!(sorted[0].1, 2);
        assert_eq!(sorted[1].1, 0);
        assert!(sorted[2].0.is_nan());
    }

    /// The ordered-expansion kernel orders exactly like
    /// [`sorted_children`]: a NaN last (and a negative NaN first, as
    /// `total_cmp` has it), ties broken by index — at every lane width
    /// and through the comparison-sort fallback.
    #[test]
    fn lane_kernel_orders_nan_last_and_ties_by_index() {
        fn order<const LANES: usize>(incs: &[f64]) -> Vec<(f64, usize)> {
            let mut inc = vec![0.0; incs.len()];
            let mut child = vec![0u32; incs.len()];
            order_lanes::<f64, LANES>(incs, &mut inc, &mut child);
            inc.into_iter()
                .zip(child.into_iter().map(|c| c as usize))
                .collect()
        }
        fn check<const LANES: usize>(incs: &[f64]) {
            let got = order::<LANES>(incs);
            let want = sorted_children(incs);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0.to_bits(), g.1), (w.0.to_bits(), w.1), "{incs:?}");
            }
        }
        let four = [1.0, f64::NAN, 1.0, 0.5];
        assert_eq!(
            order::<4>(&four)
                .iter()
                .map(|&(_, c)| c)
                .collect::<Vec<_>>(),
            vec![3, 0, 2, 1],
            "NaN last, the tie between children 0 and 2 broken by index"
        );
        check::<2>(&[f64::NAN, 3.0]);
        check::<2>(&[2.0, 2.0]);
        check::<4>(&four);
        check::<4>(&[-f64::NAN, 0.0, -0.0, f64::INFINITY]);
        let sixteen: Vec<f64> = (0..16)
            .map(|i| match i % 5 {
                0 => f64::NAN,
                1 => 1.5,
                _ => (i * 7 % 11) as f64,
            })
            .collect();
        check::<16>(&sixteen);
        // Orders without a lane width take the comparison sort.
        check::<0>(&sixteen);
        check::<0>(&[4.0, f64::NAN, 4.0]);
    }

    #[test]
    #[should_panic(expected = "cannot expand a leaf")]
    fn leaf_expansion_rejected() {
        let (_, prep) = setup(3, Modulation::Qam4, 5);
        let mut scratch = PdScratch::new(4, 3);
        eval_children(&prep, &[0, 1, 2], EvalStrategy::Gemm, &mut scratch);
    }
}
