//! Quantized (i16/i32 fixed-point) search engines — the software model of
//! the paper's DSP-slice datapath.
//!
//! [`FxPrepared`] quantizes a QR-[`Prepared`] problem into the Q-format of
//! [`sd_math::fixed`] (symbols Q3.12, `R` block-scaled to an 11-bit
//! target, `ȳ` on the product grid), and two engines search it with the
//! exact integer kernels of [`sd_math::fxkernel`]:
//!
//! * [`QuantizedKBestSd`] — level-synchronous K-best, the batched
//!   fixed-throughput rung for the serve ladder;
//! * [`QuantizedFsd`] — fixed-complexity: full expansion of the top
//!   levels, then per-node argmin SIC, with no data-dependent control
//!   flow at all (the hardware-shaped variant).
//!
//! Both run one level sweep over a *survivor table* held in the caller's
//! [`SearchWorkspace`]: a row per kept node with its path metric, its
//! symbols and its **carried residual** `ŷ_j − Σ_l r̂_{j,l}·ŝ_l` for
//! every level `j` below it. Expanding a level reads one residual per
//! row; keeping a child subtracts its precomputed coupling products from
//! the parent's residuals. Like a hardware FSD pipeline stage, a row
//! carries its path forward, so nothing walks back up the tree. The sweep
//! covers `B ≥ 1` subcarriers that share `R`; a single vector is the
//! sweep with `B = 1`.
//!
//! Both take [`MetricKind::L2`] (the ML metric) or [`MetricKind::LInf`]
//! (Seethaler–Bölcskei infinity-norm, compares instead of multiplies).
//!
//! The f64 engines remain the accuracy reference: quantization *rounds*,
//! so the gate for these engines is not bit-identity with the float path
//! but a measured BER degradation bound against the float engine of the
//! same configuration, [`MAX_QUANT_DEGRADATION_DB`]. Within the fixed
//! domain, the sweeps are bit-identical to the plain oracles in
//! [`crate::reference`].
//!
//! `DetectionStats::flops` for these engines counts *integer* lane ops
//! (multiplies, adds, compares of the fixed kernels) so throughput ratios
//! against the float engines compare like for like.

use crate::arena::SearchWorkspace;
use crate::block::decode_prepared_loop;
use crate::detector::{Detection, DetectionStats, SearchQuality};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::preprocess::{BlockPrep, Prepared};
use crate::select::keep_best_slice;
use crate::trace::TraceSink;
use sd_math::fixed::{
    coef_scale, quantize_i16, quantize_i32, MetricKind, MAX_FX_ANTENNAS, SYM_SCALE,
};
use sd_math::fxkernel::fx_metric_update;
use sd_wireless::{Constellation, FrameData};

/// BER-degradation budget of each served quantized rung against the f64
/// engine of the same configuration, in dB of SNR at BER 10⁻²:
/// [`QuantizedKBestSd`] against `KBestSd` at the same `K`, and
/// [`QuantizedFsd`] against `FixedComplexitySd` with the same number of
/// fully-expanded levels, both in ℓ2. `tests/quantized.rs` gates both with
/// common random numbers on 8×8 QAM4 and 16-QAM (every `cargo test`) and
/// on 16×16 16-QAM (release, via `ci.sh`); EXPERIMENTS.md records the
/// measured costs.
///
/// The bound prices the Q-format of [`sd_math::fixed`] alone: Q3.12
/// symbols against 11-bit block-scaled coefficients leave the
/// quantization noise more than 30 dB below the channel noise at every
/// SNR the sweeps visit. The ℓ∞ metric of the `fsd-fx-linf` rung is a
/// metric choice, not rounding, and costs more than this bound; its
/// penalty is measured, not gated. The constant is the *contract*, the
/// sweeps are the evidence.
pub const MAX_QUANT_DEGRADATION_DB: f64 = 0.2;

/// Largest constellation order the integer engines take (64-QAM).
const MAX_ORDER: usize = 64;

/// One tree level of a quantized problem.
#[derive(Clone, Debug, Default)]
struct FxLevel {
    /// Suffix coefficients `r̂_{i,i+1+off}` (deepest ancestor first).
    a_re: Vec<i16>,
    a_im: Vec<i16>,
    /// Quantized received component `ŷ_i` on the product grid.
    y_re: i32,
    y_im: i32,
    /// Per-child seeds `r̂_ii ⊗ ŝ_c` (exact i32 products).
    seed_re: Vec<i32>,
    seed_im: Vec<i32>,
    /// Coupling products `r̂_{j,d} ⊗ ŝ_c` of this level's (depth `d`)
    /// symbol into every deeper level `j`: row `c`, column `j − d − 1`.
    /// Each is the very term the suffix sum of level `j` adds for it.
    couple_re: Vec<i32>,
    couple_im: Vec<i32>,
}

impl FxLevel {
    /// Coupling products of child `c` into the `w` deeper levels: fixing
    /// `c` here subtracts them from the carried residuals there.
    #[inline]
    fn coupling(&self, c: usize, w: usize) -> (&[i32], &[i32]) {
        let row = c * w..(c + 1) * w;
        (&self.couple_re[row.clone()], &self.couple_im[row])
    }
}

/// A [`Prepared`] problem quantized into the fixed-point Q-format.
///
/// Rebuilt per decode by the quantized engines (cheap: one pass over the
/// `R` triangle), reusing all buffers; see [`sd_math::fixed`] for the
/// scaling rules and overflow analysis that make every kernel op exact.
#[derive(Clone, Debug, Default)]
pub struct FxPrepared {
    /// Tree depth `M`.
    pub n_tx: usize,
    /// Constellation order `P`.
    pub order: usize,
    /// Dynamic coefficient scale `α` (see [`coef_scale`]).
    pub coef_scale: f64,
    /// Quantized constellation components (Q3.12).
    sym_re: Vec<i16>,
    sym_im: Vec<i16>,
    levels: Vec<FxLevel>,
}

impl FxPrepared {
    /// Empty problem; fill with [`FxPrepared::quantize_from`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantize `prep` into this problem, reusing all buffers.
    pub fn quantize_from(&mut self, prep: &Prepared<f64>) {
        let m = prep.n_tx;
        let p = prep.order;
        assert!(
            m <= MAX_FX_ANTENNAS,
            "quantized path supports at most {MAX_FX_ANTENNAS} antennas (overflow analysis)"
        );
        assert!(
            p.is_power_of_two() && p <= MAX_ORDER,
            "unsupported order {p}"
        );
        self.n_tx = m;
        self.order = p;

        let mut max_abs = 0.0f64;
        for block in &prep.row_blocks {
            for l in 0..block.cols() {
                let v = block[(0, l)];
                max_abs = max_abs.max(v.re.abs()).max(v.im.abs());
            }
        }
        let alpha = coef_scale(max_abs);
        self.coef_scale = alpha;

        self.sym_re.clear();
        self.sym_im.clear();
        for pt in &prep.points {
            self.sym_re.push(quantize_i16(pt.re, SYM_SCALE));
            self.sym_im.push(quantize_i16(pt.im, SYM_SCALE));
        }

        self.levels.resize_with(m, FxLevel::default);
        for (d, level) in self.levels.iter_mut().enumerate() {
            let i = m - 1 - d;
            let block = &prep.row_blocks[d];
            level.a_re.clear();
            level.a_im.clear();
            for off in 0..d {
                let v = block[(0, 1 + off)];
                level.a_re.push(quantize_i16(v.re, alpha));
                level.a_im.push(quantize_i16(v.im, alpha));
            }
            let y = prep.ybar[i];
            level.y_re = quantize_i32(y.re, alpha * SYM_SCALE);
            level.y_im = quantize_i32(y.im, alpha * SYM_SCALE);
            let rii = block[(0, 0)];
            let (rr, ri) = (
                quantize_i16(rii.re, alpha) as i32,
                quantize_i16(rii.im, alpha) as i32,
            );
            level.seed_re.clear();
            level.seed_im.clear();
            for c in 0..p {
                let (sr, si) = (self.sym_re[c] as i32, self.sym_im[c] as i32);
                level.seed_re.push(rr * sr - ri * si);
                level.seed_im.push(rr * si + ri * sr);
            }
        }

        for d in 0..m {
            let (upper, deeper) = self.levels.split_at_mut(d + 1);
            let level = &mut upper[d];
            level.couple_re.clear();
            level.couple_im.clear();
            for c in 0..p {
                let (sr, si) = (self.sym_re[c] as i32, self.sym_im[c] as i32);
                for lj in deeper.iter() {
                    // Level j's suffix holds depth d's symbol at offset j − 1 − d.
                    let off = lj.a_re.len() - 1 - d;
                    let (ar, ai) = (lj.a_re[off] as i32, lj.a_im[off] as i32);
                    level.couple_re.push(ar * sr - ai * si);
                    level.couple_im.push(ar * si + ai * sr);
                }
            }
        }
    }

    /// Scale factor from a fixed metric back to float units:
    /// `(α·2^12)²` for ℓ2 (a squared distance), `α·2^12` for ℓ∞ (a
    /// distance).
    fn metric_unit(&self, metric: MetricKind) -> f64 {
        let unit = self.coef_scale * SYM_SCALE;
        match metric {
            MetricKind::L2 => unit * unit,
            MetricKind::LInf => unit,
        }
    }

    /// Convert a fixed path metric to float units (for
    /// `DetectionStats::final_radius_sqr`; note it is a plain distance,
    /// not squared, under ℓ∞).
    pub fn metric_to_f64(&self, metric: MetricKind, v: i64) -> f64 {
        v as f64 / self.metric_unit(metric)
    }

    /// Residual `ŷ_d − Σ_l r̂_{d,l}·ŝ_l` of level `d = prefix.len()`,
    /// re-summed from the node's full depth-order path `prefix`.
    pub(crate) fn residual(&self, prefix: &[usize]) -> (i32, i32) {
        let d = prefix.len();
        let level = &self.levels[d];
        let mut wr = 0i32;
        let mut wi = 0i32;
        for off in 0..d {
            let s = prefix[d - 1 - off];
            let (ar, ai) = (level.a_re[off] as i32, level.a_im[off] as i32);
            let (sr, si) = (self.sym_re[s] as i32, self.sym_im[s] as i32);
            wr += ar * sr - ai * si;
            wi += ar * si + ai * sr;
        }
        (level.y_re - wr, level.y_im - wi)
    }

    /// Increments of every child of the node with depth-order path
    /// `prefix` (`out.len()` = `P`), from the re-summed [`Self::residual`].
    pub(crate) fn increments(&self, prefix: &[usize], metric: MetricKind, out: &mut [i64]) {
        let (u_re, u_im) = self.residual(prefix);
        let level = &self.levels[prefix.len()];
        fx_metric_update(u_re, u_im, &level.seed_re, &level.seed_im, metric, out);
    }

    /// Exact fixed-domain metric of a complete depth-order path — the
    /// scalar oracle the engines are checked against.
    pub fn leaf_metric(&self, path: &[usize], metric: MetricKind) -> i64 {
        assert_eq!(path.len(), self.n_tx);
        let mut acc = 0i64;
        for (d, level) in self.levels.iter().enumerate() {
            let (u_re, u_im) = self.residual(&path[..d]);
            let mut inc = [0i64];
            fx_metric_update(
                u_re,
                u_im,
                &level.seed_re[path[d]..path[d] + 1],
                &level.seed_im[path[d]..path[d] + 1],
                metric,
                &mut inc,
            );
            acc = metric.combine(acc, inc[0]);
        }
        acc
    }

    /// Fixed-domain metric of the best leaf found by exhaustive
    /// enumeration (odometer over all `P^M` paths). Test oracle — only
    /// viable on small grids.
    pub fn brute_force_min(&self, metric: MetricKind) -> (i64, Vec<usize>) {
        let m = self.n_tx;
        let p = self.order;
        let mut path = vec![0usize; m];
        let mut best = (self.leaf_metric(&path, metric), path.clone());
        'outer: loop {
            for d in (0..m).rev() {
                path[d] += 1;
                if path[d] < p {
                    let v = self.leaf_metric(&path, metric);
                    if v < best.0 {
                        best = (v, path.clone());
                    }
                    continue 'outer;
                }
                path[d] = 0;
            }
            return best;
        }
    }
}

/// Integer-op count of one batched level expansion (`b` nodes of depth
/// `depth`, `p` children each): the suffix CMACs, the residual subtract,
/// and the metric reduction. The survivor table carries the suffix sums
/// instead of re-summing them, but every engine still reports the
/// re-summing datapath's count, so the statistic stays comparable.
pub(crate) fn fx_level_ops(b: usize, depth: usize, p: usize) -> u64 {
    (b as u64) * (8 * depth as u64 + 2) + (b * p) as u64 * 5
}

/// Greedy SIC completion of a node to a leaf: per level keep the child of
/// least (increment, index), ignoring any bound. `path` holds the node's
/// depth-order symbols, `res_*[j]` its carried residual of level `j` for
/// every `j ≥ path.len()`; `pd` is its path metric. Work is charged to
/// `stats` like any other expansion. Leaves the leaf in `path` and
/// returns its metric — the fixed-point analogue of
/// `crate::pd::greedy_tail`.
fn fx_greedy_tail(
    fx: &FxPrepared,
    metric: MetricKind,
    mut pd: i64,
    path: &mut Vec<usize>,
    res_re: &mut [i32],
    res_im: &mut [i32],
    stats: &mut DetectionStats,
) -> i64 {
    let (m, p) = (fx.n_tx, fx.order);
    let mut inc = [0i64; MAX_ORDER];
    for depth in path.len()..m {
        stats.nodes_expanded += 1;
        stats.nodes_generated += p as u64;
        stats.per_level_generated[depth] += p as u64;
        stats.flops += fx_level_ops(1, depth, p);
        let level = &fx.levels[depth];
        let inc = &mut inc[..p];
        fx_metric_update(
            res_re[depth],
            res_im[depth],
            &level.seed_re,
            &level.seed_im,
            metric,
            inc,
        );
        let (c, &best) = inc
            .iter()
            .enumerate()
            .min_by_key(|&(c, &v)| (v, c))
            .expect("P > 0");
        pd = metric.combine(pd, best);
        path.push(c);
        let (kr, ki) = level.coupling(c, m - 1 - depth);
        for (r, &k) in res_re[depth + 1..m].iter_mut().zip(kr) {
            *r -= k;
        }
        for (r, &k) in res_im[depth + 1..m].iter_mut().zip(ki) {
            *r -= k;
        }
    }
    pd
}

/// Which children of a level survive the sweep.
#[derive(Clone, Copy, Debug)]
enum Cut {
    /// The `K` children of least (metric, position·P + child) per
    /// subcarrier, sorted; a level of at most `K` children keeps them all.
    KBest(usize),
    /// Every child of the first `n_fe` levels, then each row's child of
    /// least (increment, child).
    Fsd(usize),
}

/// One level of the survivor table: a row per kept node, subcarrier-major
/// (`width` rows per subcarrier). Sized on growth only.
#[derive(Debug, Default)]
struct FxRows {
    /// Path metric.
    metric: Vec<i64>,
    /// Symbols in depth order, stride `M`: the node's `depth` first.
    sym: Vec<u8>,
    /// Carried residuals, stride `M`: entry `j ≥ depth` is level `j`'s.
    res_re: Vec<i32>,
    res_im: Vec<i32>,
}

impl FxRows {
    fn ensure(&mut self, rows: usize, m: usize) {
        if self.metric.len() < rows {
            self.metric.resize(rows, 0);
        }
        if self.sym.len() < rows * m {
            self.sym.resize(rows * m, 0);
            self.res_re.resize(rows * m, 0);
            self.res_im.resize(rows * m, 0);
        }
    }
}

/// The fixed-point K-best/FSD sweep's reusable state, held in
/// [`SearchWorkspace`]: the quantized problem and the survivor table.
#[derive(Debug, Default)]
pub(crate) struct FxSweep {
    fx: FxPrepared,
    /// The current level's rows and the next level's.
    cur: FxRows,
    next: FxRows,
    /// Child increments of the current level, `rows × P`.
    inc: Vec<i64>,
    /// One subcarrier's candidates at a K-best cut.
    cand: Vec<(i64, u32)>,
    /// Leaf path under construction.
    path: Vec<usize>,
}

impl FxSweep {
    /// Quantize `prep` and load one root row per subcarrier: `ŷ` from
    /// `prep` itself, or from every subcarrier of `block`. `α` depends on
    /// the shared `R` alone, so a block quantizes onto one grid.
    fn load(&mut self, prep: &Prepared<f64>, block: Option<&BlockPrep<f64>>) {
        self.fx.quantize_from(prep);
        let m = self.fx.n_tx;
        let scale = self.fx.coef_scale * SYM_SCALE;
        let b = block.map_or(1, BlockPrep::len);
        self.cur.ensure(b, m);
        for sc in 0..b {
            self.cur.metric[sc] = 0;
            for (j, level) in self.fx.levels.iter().enumerate() {
                let (re, im) = match block {
                    Some(block) => {
                        let y = block.ybar_at(m - 1 - j, sc);
                        (quantize_i32(y.re, scale), quantize_i32(y.im, scale))
                    }
                    None => (level.y_re, level.y_im),
                };
                self.cur.res_re[sc * m + j] = re;
                self.cur.res_im[sc * m + j] = im;
            }
        }
    }

    /// Next-level row `dst` := child `c` of current row `src` at `depth`,
    /// with path metric `pd`.
    #[inline]
    fn keep(&mut self, dst: usize, src: usize, c: usize, pd: i64, depth: usize) {
        let FxSweep { fx, cur, next, .. } = self;
        let m = fx.n_tx;
        let (s, t, lo) = (src * m, dst * m, depth + 1);
        next.metric[dst] = pd;
        next.sym[t..t + depth].copy_from_slice(&cur.sym[s..s + depth]);
        next.sym[t + depth] = c as u8;
        let (kr, ki) = fx.levels[depth].coupling(c, m - lo);
        let child = next.res_re[t + lo..t + m].iter_mut();
        for ((q, &r), &k) in child.zip(&cur.res_re[s + lo..s + m]).zip(kr) {
            *q = r - k;
        }
        let child = next.res_im[t + lo..t + m].iter_mut();
        for ((q, &r), &k) in child.zip(&cur.res_im[s + lo..s + m]).zip(ki) {
            *q = r - k;
        }
    }

    /// The level sweep over the `out.len()` subcarriers [`Self::load`]
    /// left. Checks `budget` before every level; a trip completes each
    /// subcarrier's best row greedily and flags
    /// [`SearchQuality::BudgetTruncated`]. Emits search events into
    /// `trace` when one is installed (single vectors only).
    fn run(
        &mut self,
        cut: Cut,
        metric: MetricKind,
        budget: &DecodeBudget,
        prep: &Prepared<f64>,
        trace: &mut Option<Box<dyn TraceSink>>,
        out: &mut [Detection],
    ) {
        let (m, p) = (self.fx.n_tx, self.fx.order);
        let shift = p.trailing_zeros();
        let b = out.len();
        for d in out.iter_mut() {
            d.stats.reset(m);
        }
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }

        let mut width = 1usize;
        let mut reached = m;
        for depth in 0..m {
            if budget.tripped_after(out[0].stats.nodes_generated) {
                reached = depth;
                break;
            }
            let (rows, gen) = (b * width, width * p);
            if self.inc.len() < rows * p {
                self.inc.resize(rows * p, 0);
            }
            let level = &self.fx.levels[depth];
            for (r, inc) in self.inc[..rows * p].chunks_exact_mut(p).enumerate() {
                let (u_re, u_im) = (
                    self.cur.res_re[r * m + depth],
                    self.cur.res_im[r * m + depth],
                );
                fx_metric_update(u_re, u_im, &level.seed_re, &level.seed_im, metric, inc);
            }
            let ops = fx_level_ops(width, depth, p);
            for d in out.iter_mut() {
                d.stats.flops += ops;
                d.stats.nodes_expanded += width as u64;
                d.stats.nodes_generated += gen as u64;
                d.stats.per_level_generated[depth] += gen as u64;
            }
            if let Some(t) = trace.as_deref_mut() {
                t.on_expand(depth, width as u64, gen as u64);
            }

            let kept = match cut {
                Cut::KBest(k) if gen > k => {
                    self.next.ensure(b * k, m);
                    for (sc, d) in out.iter_mut().enumerate() {
                        let first = sc * width;
                        // Out of `self` while `keep` writes the survivors.
                        let mut cand = std::mem::take(&mut self.cand);
                        cand.clear();
                        cand.extend(
                            self.inc[first * p..(first + width) * p]
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| {
                                    (
                                        metric.combine(self.cur.metric[first + (i >> shift)], v),
                                        i as u32,
                                    )
                                }),
                        );
                        keep_best_slice(&mut cand, k, |a, b| a.cmp(b));
                        for (slot, &(pd, key)) in cand[..k].iter().enumerate() {
                            let key = key as usize;
                            self.keep(
                                sc * k + slot,
                                first + (key >> shift),
                                key & (p - 1),
                                pd,
                                depth,
                            );
                        }
                        self.cand = cand;
                        d.stats.nodes_pruned += (gen - k) as u64;
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.on_sort(depth, gen as u64);
                        t.on_prune(depth, (gen - k) as u64);
                    }
                    k
                }
                Cut::Fsd(n_fe) if depth >= n_fe => {
                    self.next.ensure(rows, m);
                    for r in 0..rows {
                        let (c, &v) = self.inc[r * p..(r + 1) * p]
                            .iter()
                            .enumerate()
                            .min_by_key(|&(c, &v)| (v, c))
                            .expect("P > 0");
                        let pd = metric.combine(self.cur.metric[r], v);
                        self.keep(r, r, c, pd, depth);
                    }
                    let pruned = width * (p - 1);
                    for d in out.iter_mut() {
                        d.stats.nodes_pruned += pruned as u64;
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.on_prune(depth, pruned as u64);
                    }
                    width
                }
                _ => {
                    // Every child survives, in generation order.
                    self.next.ensure(rows * p, m);
                    for r in 0..rows {
                        for c in 0..p {
                            let pd = metric.combine(self.cur.metric[r], self.inc[r * p + c]);
                            self.keep(r * p + c, r, c, pd, depth);
                        }
                    }
                    gen
                }
            };
            if let Some(t) = trace.as_deref_mut() {
                t.on_accept(depth, kept as u64);
            }
            width = kept;
            std::mem::swap(&mut self.cur, &mut self.next);
        }

        for (sc, d) in out.iter_mut().enumerate() {
            // Rows sit in cut order or in generation order, so the least
            // (metric, position) is the least (metric, generation index).
            let best = (sc * width..(sc + 1) * width)
                .min_by_key(|&r| (self.cur.metric[r], r))
                .expect("every subcarrier keeps a row");
            let row = best * m..(best + 1) * m;
            self.path.clear();
            self.path.extend(
                self.cur.sym[row.start..row.start + reached]
                    .iter()
                    .map(|&s| s as usize),
            );
            let mut pd = self.cur.metric[best];
            if reached < m {
                let spent = d.stats.nodes_generated;
                pd = fx_greedy_tail(
                    &self.fx,
                    metric,
                    pd,
                    &mut self.path,
                    &mut self.cur.res_re[row.clone()],
                    &mut self.cur.res_im[row],
                    &mut d.stats,
                );
                d.stats.leaves_reached = 1;
                d.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
            } else {
                d.stats.leaves_reached = width as u64;
            }
            d.stats.radius_updates = 1;
            d.stats.final_radius_sqr = self.fx.metric_to_f64(metric, pd);
            d.stats.flops += prep.prep_flops;
            prep.indices_from_path_into(&self.path, &mut d.indices);
        }
        if reached == m {
            if let Some(t) = trace.as_deref_mut() {
                t.on_radius_update(m - 1, out[0].stats.final_radius_sqr);
            }
        }
    }
}

/// Decode one vector: the sweep with `B = 1`, traced when a sink is
/// installed.
fn sweep_one(
    cut: Cut,
    metric: MetricKind,
    prep: &Prepared<f64>,
    budget: &DecodeBudget,
    ws: &mut SearchWorkspace<f64>,
    out: &mut Detection,
) {
    let SearchWorkspace { fx, trace, .. } = ws;
    fx.load(prep, None);
    fx.run(cut, metric, budget, prep, trace, std::slice::from_mut(out));
}

/// Fused block decode: one sweep for the whole coherence block, each
/// subcarrier bit-identical to its own [`sweep_one`]. Per-decode event
/// streams need the per-subcarrier loop, so a traced workspace runs it.
#[allow(clippy::too_many_arguments)]
fn sweep_block(
    det: &dyn PreparedDetector<f64>,
    cut: Cut,
    metric: MetricKind,
    block: &BlockPrep<f64>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    prep: &mut Prepared<f64>,
    ws: &mut SearchWorkspace<f64>,
    out: &mut [Detection],
) -> bool {
    if ws.trace_enabled() {
        decode_prepared_loop(det, block, frames, budget, prep, ws, out);
        return false;
    }
    if !frames.is_empty() {
        assert_eq!(out.len(), block.len(), "one Detection per subcarrier");
        ws.fx.load(prep, Some(block));
        ws.fx.run(cut, metric, budget, prep, &mut None, out);
    }
    true
}

/// K-best (M-algorithm) sweep over the quantized problem: the cheap
/// fixed-throughput rung of the serve ladder. Level-synchronous;
/// survivors are the `K` smallest fixed metrics (ties broken by
/// generation order, so results are deterministic).
#[derive(Debug)]
pub struct QuantizedKBestSd {
    constellation: Constellation,
    /// Survivors kept per level.
    pub k: usize,
    /// Path metric (ℓ2 or ℓ∞).
    pub metric: MetricKind,
}

impl QuantizedKBestSd {
    /// Quantized K-best decoder with per-level list size `k` (ℓ2 metric).
    pub fn new(constellation: Constellation, k: usize) -> Self {
        assert!(k > 0, "K must be positive");
        QuantizedKBestSd {
            constellation,
            k,
            metric: MetricKind::L2,
        }
    }

    /// Builder: path metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }
}

impl PreparedDetector<f64> for QuantizedKBestSd {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.detect_prepared_budgeted_into(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    /// The quantized K-best sweep under an anytime budget (checked once
    /// per level, like the float engine): a trip completes the best
    /// survivor greedily in the fixed domain and flags
    /// [`SearchQuality::BudgetTruncated`]; untripped decodes are
    /// bit-identical to [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        sweep_one(Cut::KBest(self.k), self.metric, prep, budget, ws, out);
    }

    /// Cross-subcarrier fused block decode: one sweep for the whole
    /// coherence block, each subcarrier cut on its own.
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<f64>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<f64>,
        ws: &mut SearchWorkspace<f64>,
        out: &mut [Detection],
    ) -> bool {
        let cut = Cut::KBest(self.k);
        sweep_block(self, cut, self.metric, block, frames, budget, prep, ws, out)
    }
}

impl_detector_via_prepared!(QuantizedKBestSd, "SD K-best fixed-i16");

/// Fixed-complexity sphere decoding on the quantized problem: the first
/// `full_expansion_levels` tree levels are fully expanded, every later
/// level keeps each node's single best child (SIC). Zero data-dependent
/// control flow — frontier sizes depend only on `(M, P, n_fe)` — which is
/// the property the FPGA schedule needs.
#[derive(Debug)]
pub struct QuantizedFsd {
    constellation: Constellation,
    /// Fully-expanded levels `n_fe`.
    pub full_expansion_levels: usize,
    /// Path metric (ℓ2 or ℓ∞).
    pub metric: MetricKind,
}

impl QuantizedFsd {
    /// Quantized FSD with one fully-expanded level (ℓ2 metric).
    pub fn new(constellation: Constellation) -> Self {
        QuantizedFsd {
            constellation,
            full_expansion_levels: 1,
            metric: MetricKind::L2,
        }
    }

    /// Builder: number of fully-expanded levels.
    pub fn with_full_expansion_levels(mut self, n_fe: usize) -> Self {
        self.full_expansion_levels = n_fe;
        self
    }

    /// Builder: path metric.
    pub fn with_metric(mut self, metric: MetricKind) -> Self {
        self.metric = metric;
        self
    }
}

impl PreparedDetector<f64> for QuantizedFsd {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    fn detect_prepared_into(
        &self,
        prep: &Prepared<f64>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        self.detect_prepared_budgeted_into(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    /// The quantized FSD sweep under an anytime budget (checked once per
    /// level): a trip completes the best survivor greedily in the fixed
    /// domain and flags [`SearchQuality::BudgetTruncated`]; untripped
    /// decodes are bit-identical to [`Self::detect_prepared_into`].
    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<f64>,
        _radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<f64>,
        out: &mut Detection,
    ) {
        let cut = Cut::Fsd(self.full_expansion_levels);
        sweep_one(cut, self.metric, prep, budget, ws, out);
    }

    /// Cross-subcarrier fused block decode: FSD has *no* data-dependent
    /// control flow — every subcarrier keeps `P^min(depth, n_fe)` rows —
    /// so the block sweep is a pure scheduling change.
    fn detect_block_prepared_budgeted_into(
        &self,
        block: &BlockPrep<f64>,
        frames: &[FrameData],
        budget: &DecodeBudget,
        prep: &mut Prepared<f64>,
        ws: &mut SearchWorkspace<f64>,
        out: &mut [Detection],
    ) -> bool {
        let cut = Cut::Fsd(self.full_expansion_levels);
        sweep_block(self, cut, self.metric, block, frames, budget, prep, ws, out)
    }
}

impl_detector_via_prepared!(QuantizedFsd, "FSD fixed-i16");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::kbest::KBestSd;
    use crate::preprocess::preprocess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

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
    fn quantization_is_reusable_and_deterministic() {
        let (c, fs) = frames(6, Modulation::Qam16, 12.0, 3, 1);
        let mut fx = FxPrepared::new();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            fx.quantize_from(&prep);
            let mut fx2 = FxPrepared::new();
            fx2.quantize_from(&prep);
            assert_eq!(fx.coef_scale, fx2.coef_scale);
            assert_eq!(fx.sym_re, fx2.sym_re);
            assert_eq!(
                fx.leaf_metric(&[0; 6], MetricKind::L2),
                fx2.leaf_metric(&[0; 6], MetricKind::L2)
            );
        }
    }

    #[test]
    fn quantized_kbest_full_width_is_fixed_ml() {
        // K ≥ P^M keeps everything: the K-best sweep must find the same
        // fixed-domain minimum as brute force.
        let (c, fs) = frames(3, Modulation::Qam4, 8.0, 10, 4);
        for metric in [MetricKind::L2, MetricKind::LInf] {
            let kb = QuantizedKBestSd::new(c.clone(), 64).with_metric(metric);
            for f in &fs {
                let prep = preprocess::<f64>(f, &c);
                let det = kb.detect_prepared(&prep, f64::INFINITY);
                let mut fx = FxPrepared::new();
                fx.quantize_from(&prep);
                let (want, _) = fx.brute_force_min(metric);
                let tree_path: Vec<usize> = (0..prep.n_tx)
                    .map(|d| det.indices[prep.perm[prep.n_tx - 1 - d]])
                    .collect();
                assert_eq!(fx.leaf_metric(&tree_path, metric), want);
            }
        }
    }

    #[test]
    fn quantized_kbest_tracks_float_kbest_closely() {
        // Same K, same frames: the quantized K-best should almost always
        // agree with the float K-best at moderate SNR (quantization noise
        // ≪ channel noise).
        let (c, fs) = frames(8, Modulation::Qam16, 18.0, 40, 5);
        let fkb: KBestSd<f64> = KBestSd::new(c.clone(), 16);
        let qkb = QuantizedKBestSd::new(c.clone(), 16);
        let mut disagreements = 0;
        for f in &fs {
            if fkb.detect(f).indices != qkb.detect(f).indices {
                disagreements += 1;
            }
        }
        assert!(
            disagreements <= 2,
            "quantized K-best diverged from float on {disagreements}/40 frames"
        );
    }

    #[test]
    fn fsd_is_fixed_complexity_and_exact_when_everything_expands() {
        let (c, fs) = frames(4, Modulation::Qam4, 6.0, 10, 7);
        // n_fe = M: FSD degenerates to exhaustive search.
        let fsd = QuantizedFsd::new(c.clone()).with_full_expansion_levels(4);
        let mut gen_counts = std::collections::HashSet::new();
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let det = fsd.detect_prepared(&prep, f64::INFINITY);
            gen_counts.insert(det.stats.nodes_generated);
            let mut fx = FxPrepared::new();
            fx.quantize_from(&prep);
            let (want, _) = fx.brute_force_min(MetricKind::L2);
            let tree_path: Vec<usize> = (0..prep.n_tx)
                .map(|d| det.indices[prep.perm[prep.n_tx - 1 - d]])
                .collect();
            assert_eq!(fx.leaf_metric(&tree_path, MetricKind::L2), want);
        }
        assert_eq!(gen_counts.len(), 1, "workload must be data-independent");
    }

    #[test]
    fn fsd_workload_is_snr_independent() {
        let (c, lo) = frames(8, Modulation::Qam16, 4.0, 5, 8);
        let (_, hi) = frames(8, Modulation::Qam16, 24.0, 5, 8);
        let fsd = QuantizedFsd::new(c);
        let n_lo: u64 = lo.iter().map(|f| fsd.detect(f).stats.nodes_generated).sum();
        let n_hi: u64 = hi.iter().map(|f| fsd.detect(f).stats.nodes_generated).sum();
        assert_eq!(n_lo, n_hi);
    }

    #[test]
    fn stats_invariants_hold() {
        let (c, fs) = frames(5, Modulation::Qam16, 12.0, 5, 11);
        let engines: Vec<Box<dyn PreparedDetector<f64>>> = vec![
            Box::new(QuantizedKBestSd::new(c.clone(), 8)),
            Box::new(QuantizedFsd::new(c.clone())),
        ];
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            for e in &engines {
                let det = e.detect_prepared(&prep, f64::INFINITY);
                assert_eq!(det.indices.len(), 5);
                assert!(det.stats.nodes_generated >= det.stats.nodes_pruned);
                assert!(det.stats.leaves_reached > 0);
                assert!(det.stats.flops > prep.prep_flops);
                assert!(det.stats.final_radius_sqr.is_finite());
                let total: u64 = det.stats.per_level_generated.iter().sum();
                assert_eq!(total, det.stats.nodes_generated);
            }
        }
    }

    #[test]
    fn linf_metric_is_max_of_level_increments() {
        let (c, fs) = frames(4, Modulation::Qam4, 8.0, 3, 12);
        for f in &fs {
            let prep = preprocess::<f64>(f, &c);
            let mut fx = FxPrepared::new();
            fx.quantize_from(&prep);
            let path = vec![1usize, 0, 3, 2];
            let linf = fx.leaf_metric(&path, MetricKind::LInf);
            let l2 = fx.leaf_metric(&path, MetricKind::L2);
            // ℓ∞ ≤ √ℓ2 (component max vs Euclidean norm, fixed grid).
            assert!((linf as f64) <= (l2 as f64).sqrt() + 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "K must be positive")]
    fn zero_k_rejected() {
        let _ = QuantizedKBestSd::new(Constellation::new(Modulation::Qam4), 0);
    }
}
