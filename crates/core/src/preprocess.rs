//! QR preprocessing (Eq. 4 of the paper).
//!
//! `‖y − Hs‖² = ‖ȳ − Rs‖² + ‖tail‖²` with `H = QR`, `ȳ = Q^H y`. The
//! tree search then only touches the `M × M` upper-triangular `R` and the
//! first `M` entries of `ȳ`. The preprocessing is done once per channel
//! use and is shared by every tree decoder, so cross-decoder comparisons
//! are exact.

use sd_math::{qr_with_qty, Complex, Float, Matrix, QrFactors, QrScratch};
use sd_wireless::{Constellation, FrameData};
use serde::{Deserialize, Serialize};

/// Detection-order preprocessing: permute the columns of `H` before the
/// QR step so the tree fixes streams in a chosen order. The tree's first
/// levels correspond to the *last* columns, so placing reliable
/// (high-norm) streams last makes the early partial distances sharp and
/// shrinks the search — the standard ordering trick of V-BLAST-style
/// detectors, exposed here as an ablation axis.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnOrdering {
    /// Natural antenna order (what the paper's pipeline uses).
    #[default]
    Natural,
    /// Strongest column (largest ‖h_j‖) detected first.
    NormDescending,
    /// Weakest column detected first (the pessimal order, for contrast).
    NormAscending,
}

impl ColumnOrdering {
    /// Column permutation `perm` such that `H_perm[:, k] = H[:, perm[k]]`,
    /// written into caller-owned buffers (`norms` is scratch).
    fn permutation_into<F: Float>(
        self,
        h: &Matrix<F>,
        perm: &mut Vec<usize>,
        norms: &mut Vec<f64>,
    ) {
        let m = h.cols();
        perm.clear();
        perm.extend(0..m);
        if self == ColumnOrdering::Natural {
            return;
        }
        norms.clear();
        norms.extend((0..m).map(|j| {
            (0..h.rows())
                .map(|i| h[(i, j)].norm_sqr().to_f64())
                .sum::<f64>()
        }));
        // Tree level 0 fixes the LAST column, so "detected first" means
        // sorted to the end of the permutation. `sort_unstable_by` keeps
        // this path allocation-free (ties are measure-zero for random H).
        match self {
            ColumnOrdering::NormDescending => {
                perm.sort_unstable_by(|&a, &b| norms[a].total_cmp(&norms[b]))
            }
            ColumnOrdering::NormAscending => {
                perm.sort_unstable_by(|&a, &b| norms[b].total_cmp(&norms[a]))
            }
            ColumnOrdering::Natural => unreachable!(),
        }
    }

    /// Column permutation `perm` such that `H_perm[:, k] = H[:, perm[k]]`.
    fn permutation<F: Float>(self, h: &Matrix<F>) -> Vec<usize> {
        let mut perm = Vec::new();
        let mut norms = Vec::new();
        self.permutation_into(h, &mut perm, &mut norms);
        perm
    }
}

/// Precision-cast, QR-reduced decoding problem.
#[derive(Clone, Debug)]
pub struct Prepared<F: Float> {
    /// `M × M` upper-triangular factor.
    pub r: Matrix<F>,
    /// First `M` entries of `Q^H y`.
    pub ybar: Vec<Complex<F>>,
    /// Constant metric offset `‖(Q^H y)[M..]‖²` (hypothesis-independent).
    pub tail_energy: F,
    /// Constellation points cast to the working precision.
    pub points: Vec<Complex<F>>,
    /// Number of transmit antennas `M` (tree depth).
    pub n_tx: usize,
    /// Constellation order `P` (branching factor).
    pub order: usize,
    /// Real flops charged to the QR + `Q^H y` step.
    pub prep_flops: u64,
    /// Column permutation applied before QR: tree antenna `k` is
    /// physical antenna `perm[k]`.
    pub perm: Vec<usize>,
    /// Per-depth GEMM row operands: `row_blocks[d]` is the `1 × (d+1)`
    /// block `[r_{ii}, r_{i,i+1}, …, r_{i,M−1}]` with `i = M−1−d`, laid
    /// out so column `1+off` multiplies the depth-`d` suffix entry `off`
    /// (deepest-first). Built once here so the batched expansion of
    /// [`crate::pd::eval_children_batch`] never re-gathers `R` rows.
    pub row_blocks: Vec<Matrix<F>>,
    /// Native-precision copy of the channel matrix `H` (unpermuted, as
    /// received). Carried so detectors that work on the raw system —
    /// the linear ZF/MMSE/MRC family — can decode from a [`Prepared`]
    /// without a round trip back to the frame.
    pub h: Matrix<f64>,
    /// Native-precision copy of the receive vector `y` (see [`Prepared::h`]).
    pub y: Vec<Complex<f64>>,
    /// Noise variance `σ²` of the frame; used by MMSE regularization and
    /// the soft/statistical decoders' noise-scaled thresholds.
    pub noise_variance: f64,
}

/// Build the per-depth `1 × (d+1)` GEMM row operands from `R`.
pub(crate) fn row_blocks_from_r<F: Float>(r: &Matrix<F>) -> Vec<Matrix<F>> {
    let mut blocks = Vec::new();
    row_blocks_into(r, &mut blocks);
    blocks
}

/// [`row_blocks_from_r`] into a caller-owned vector, reusing each block's
/// backing buffer (allocation-free at steady state for a fixed `M`).
pub(crate) fn row_blocks_into<F: Float>(r: &Matrix<F>, blocks: &mut Vec<Matrix<F>>) {
    let m = r.cols();
    if blocks.len() != m {
        blocks.resize_with(m, || Matrix::zeros(0, 0));
    }
    for (depth, block) in blocks.iter_mut().enumerate() {
        let i = m - 1 - depth;
        block.resize_for_overwrite(1, depth + 1);
        for l in 0..=depth {
            block[(0, l)] = r[(i, i + l)];
        }
    }
}

/// Approximate real-flop count of a complex Householder QR of an `n × m`
/// matrix plus the application of `Q^H` to one vector.
pub fn qr_flops(n: usize, m: usize) -> u64 {
    // Complex arithmetic is 4 mul + 4 add per MAC; the classic
    // 2(nm² − m³/3) real-QR count scales by 4.
    let n = n as u64;
    let m = m as u64;
    8 * (n * m * m).saturating_sub(8 * m * m * m / 3) + 8 * n * m
}

/// Cast the frame to precision `F` and QR-reduce it.
pub fn preprocess<F: Float>(frame: &FrameData, constellation: &Constellation) -> Prepared<F> {
    preprocess_ordered(frame, constellation, ColumnOrdering::Natural)
}

/// [`preprocess`] with an explicit detection ordering.
pub fn preprocess_ordered<F: Float>(
    frame: &FrameData,
    constellation: &Constellation,
    ordering: ColumnOrdering,
) -> Prepared<F> {
    let h_cast: Matrix<F> = frame.h.cast();
    let perm = ordering.permutation(&h_cast);
    let h = Matrix::from_fn(h_cast.rows(), h_cast.cols(), |i, j| h_cast[(i, perm[j])]);
    let y: Vec<Complex<F>> = frame.y.iter().map(|c| c.cast()).collect();
    let (r, ybar, tail_energy) = qr_with_qty(&h, &y);
    let points = constellation.points().iter().map(|p| p.cast()).collect();
    let row_blocks = row_blocks_from_r(&r);
    Prepared {
        r,
        ybar,
        tail_energy,
        points,
        n_tx: frame.h.cols(),
        order: constellation.order(),
        prep_flops: qr_flops(frame.h.rows(), frame.h.cols()),
        perm,
        row_blocks,
        h: frame.h.clone(),
        y: frame.y.clone(),
        noise_variance: frame.noise_variance,
    }
}

/// Reusable buffers for [`preprocess_ordered_into`]: the QR scratch plus
/// the cast / permuted channel matrices and the cast receive vector.
pub struct PrepScratch<F: Float> {
    qr: QrScratch<F>,
    h_cast: Matrix<F>,
    h_perm: Matrix<F>,
    y: Vec<Complex<F>>,
    norms: Vec<f64>,
}

impl<F: Float> Default for PrepScratch<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Float> PrepScratch<F> {
    /// Empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        PrepScratch {
            qr: QrScratch::new(),
            h_cast: Matrix::zeros(0, 0),
            h_perm: Matrix::zeros(0, 0),
            y: Vec::new(),
            norms: Vec::new(),
        }
    }
}

/// [`preprocess_ordered`] into a caller-owned [`Prepared`], drawing every
/// intermediate from `scratch`. Bit-identical to the allocating variant;
/// after each problem shape has been seen once, neither `scratch` nor
/// `prep` touches the allocator again — the serving runtime's per-request
/// preprocessing path.
pub fn preprocess_ordered_into<F: Float>(
    frame: &FrameData,
    constellation: &Constellation,
    ordering: ColumnOrdering,
    scratch: &mut PrepScratch<F>,
    prep: &mut Prepared<F>,
) {
    let (n, m) = frame.h.shape();
    scratch.h_cast.resize_for_overwrite(n, m);
    for i in 0..n {
        for j in 0..m {
            scratch.h_cast[(i, j)] = frame.h[(i, j)].cast();
        }
    }
    ordering.permutation_into(&scratch.h_cast, &mut prep.perm, &mut scratch.norms);
    scratch.h_perm.resize_for_overwrite(n, m);
    for i in 0..n {
        for j in 0..m {
            scratch.h_perm[(i, j)] = scratch.h_cast[(i, prep.perm[j])];
        }
    }
    scratch.y.clear();
    scratch.y.extend(frame.y.iter().map(|c| c.cast()));
    prep.tail_energy =
        scratch
            .qr
            .qr_with_qty_into(&scratch.h_perm, &scratch.y, &mut prep.r, &mut prep.ybar);
    prep.points.clear();
    prep.points
        .extend(constellation.points().iter().map(|p| p.cast()));
    prep.n_tx = m;
    prep.order = constellation.order();
    prep.prep_flops = qr_flops(n, m);
    row_blocks_into(&prep.r, &mut prep.row_blocks);
    prep.load_frame(frame);
}

/// The channel-only half of the QR preprocessing: everything that depends
/// on `H` (and the ordering) but not on the received vector `y`.
///
/// The factorization `H_perm = QR` never reads `y`; only the cheap
/// `ȳ = Qᴴy` application does. Splitting along that line lets a serving
/// layer that sees many requests sharing one channel matrix (a coherence
/// block: `H` is re-estimated once per block, symbol vectors arrive every
/// symbol period) factor once and replay — the paper's own argument for
/// amortizing preprocessing across the symbol vectors that share `H`.
/// [`prepare_with_channel_into`] completes a [`Prepared`] from this state
/// bit-identically to [`preprocess_ordered_into`].
pub struct ChannelPrep<F: Float> {
    factors: QrFactors<F>,
    r: Matrix<F>,
    perm: Vec<usize>,
    prep_flops: u64,
}

impl<F: Float> Default for ChannelPrep<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// `clone_from` reuses the destination's buffers: copying a factored
/// channel over one of the same shape is allocation-free.
impl<F: Float> Clone for ChannelPrep<F> {
    fn clone(&self) -> Self {
        let mut c = Self::new();
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, src: &Self) {
        self.factors.clone_from(&src.factors);
        let (rows, cols) = src.r.shape();
        self.r.resize_for_overwrite(rows, cols);
        self.r.as_mut_slice().copy_from_slice(src.r.as_slice());
        self.perm.clone_from(&src.perm);
        self.prep_flops = src.prep_flops;
    }
}

impl<F: Float> ChannelPrep<F> {
    /// Empty channel state; not usable until [`prepare_channel_into`]
    /// fills it.
    pub fn new() -> Self {
        ChannelPrep {
            factors: QrFactors::new(),
            r: Matrix::zeros(0, 0),
            perm: Vec::new(),
            prep_flops: 0,
        }
    }

    /// `(n_rx, n_tx)` of the factored channel.
    pub fn shape(&self) -> (usize, usize) {
        self.factors.shape()
    }
}

/// Factor a frame's channel matrix into `chan`, reusing `scratch`:
/// the `y`-independent half of [`preprocess_ordered_into`].
/// Allocation-free once the shape has been seen.
pub fn prepare_channel_into<F: Float>(
    frame: &FrameData,
    ordering: ColumnOrdering,
    scratch: &mut PrepScratch<F>,
    chan: &mut ChannelPrep<F>,
) {
    let (n, m) = frame.h.shape();
    scratch.h_cast.resize_for_overwrite(n, m);
    for i in 0..n {
        for j in 0..m {
            scratch.h_cast[(i, j)] = frame.h[(i, j)].cast();
        }
    }
    ordering.permutation_into(&scratch.h_cast, &mut chan.perm, &mut scratch.norms);
    scratch.h_perm.resize_for_overwrite(n, m);
    for i in 0..n {
        for j in 0..m {
            scratch.h_perm[(i, j)] = scratch.h_cast[(i, chan.perm[j])];
        }
    }
    chan.factors.factor(&scratch.h_perm, &mut chan.r);
    chan.prep_flops = qr_flops(n, m);
}

/// Complete a [`Prepared`] from a previously factored channel and this
/// frame's `y`: the per-request half of [`preprocess_ordered_into`].
///
/// Bit-identical to running the full preprocessing on this frame,
/// provided `chan` was built from the same `H` under the same ordering
/// (the factor/apply split of [`QrFactors`] reproduces the fused
/// `qr_with_qty` exactly). The cached path still charges the full
/// `prep_flops`, so flop-based complexity accounting stays comparable
/// whether or not a serving layer cached the factorization.
pub fn prepare_with_channel_into<F: Float>(
    frame: &FrameData,
    constellation: &Constellation,
    scratch: &mut PrepScratch<F>,
    chan: &mut ChannelPrep<F>,
    prep: &mut Prepared<F>,
) {
    let (n, m) = chan.shape();
    assert_eq!(frame.h.shape(), (n, m), "frame does not match the channel");
    prep.r.resize_for_overwrite(m, m);
    for i in 0..m {
        for j in 0..m {
            prep.r[(i, j)] = chan.r[(i, j)];
        }
    }
    prep.perm.clone_from(&chan.perm);
    scratch.y.clear();
    scratch.y.extend(frame.y.iter().map(|c| c.cast()));
    prep.tail_energy = chan.factors.apply_qty_into(&scratch.y, &mut prep.ybar);
    prep.points.clear();
    prep.points
        .extend(constellation.points().iter().map(|p| p.cast()));
    prep.n_tx = m;
    prep.order = constellation.order();
    prep.prep_flops = chan.prep_flops;
    row_blocks_into(&prep.r, &mut prep.row_blocks);
    prep.load_frame(frame);
}

/// Shared-prep state of one coherence block: the **batched** `ȳ = QᴴY`
/// products and metric tails of every receive vector that shares one
/// factored channel, plus storage for the block's own factorization.
///
/// This is the frame-serving counterpart of [`ChannelPrep`]: where the
/// per-request split factors once and replays `Qᴴ` vector by vector, the
/// block path applies `Qᴴ` to the whole block in one
/// [`sd_math::QrFactors::apply_qty_block_into`] sweep. Preparing a block
/// ([`prepare_frame_block_into`], or [`prepare_block_with_channel_into`]
/// from a cached factorization) also completes subcarrier 0's
/// [`Prepared`], which carries the block-shared channel state (`R`, the
/// permutation, row blocks, points); [`BlockPrep::fill_prepared`] then
/// moves that problem to any other subcarrier by rewriting only its `ȳ`,
/// tail and receive vector. Every subcarrier's problem is bit-identical
/// to the per-vector pipeline.
pub struct BlockPrep<F: Float> {
    chan: ChannelPrep<F>,
    ys: BlockYs<F>,
}

/// The `y`-dependent half of a prepared block.
struct BlockYs<F: Float> {
    /// Cast receive vectors, one column per subcarrier (`n × B`).
    ys: Matrix<F>,
    /// `(Qᴴ y_b)[..m]`, one column per subcarrier (`m × B`).
    ybars: Matrix<F>,
    /// `‖(Qᴴ y_b)[m..]‖²` per subcarrier.
    tails: Vec<F>,
    len: usize,
}

impl<F: Float> Default for BlockPrep<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Float> BlockPrep<F> {
    /// Empty block state; not usable until a block is prepared into it.
    /// Buffers are reused across blocks.
    pub fn new() -> Self {
        BlockPrep {
            chan: ChannelPrep::new(),
            ys: BlockYs {
                ys: Matrix::zeros(0, 0),
                ybars: Matrix::zeros(0, 0),
                tails: Vec::new(),
                len: 0,
            },
        }
    }

    /// Number of subcarriers in the most recently prepared block.
    pub fn len(&self) -> usize {
        self.ys.len
    }

    /// Whether no block has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.ys.len == 0
    }

    /// Move `prep` — a problem of this block, as left by the block
    /// preparation — to subcarrier `k`: rewrite its `ȳ`, tail, receive
    /// vector and `σ²`. The block-shared channel state (`R`, permutation,
    /// row blocks, points, flop charge, `H`) is already in `prep` and is
    /// not copied again. Bit-identical to [`prepare_with_channel_into`] of
    /// the same frame against the same factored channel. `frame` must be
    /// the subcarrier the block was prepared from (its `y` fed column `k`).
    pub fn fill_prepared(&self, k: usize, frame: &FrameData, prep: &mut Prepared<F>) {
        let b = &self.ys;
        assert!(k < b.len, "subcarrier {k} out of range ({})", b.len);
        let m = b.ybars.rows();
        prep.ybar.clear();
        prep.ybar.extend((0..m).map(|i| b.ybars[(i, k)]));
        prep.tail_energy = b.tails[k];
        prep.y.clear();
        prep.y.extend_from_slice(&frame.y);
        prep.noise_variance = frame.noise_variance;
    }

    /// Subcarrier `k`'s batched `ȳ_i` — the only per-subcarrier input the
    /// fused block decoders read per tree level, everything else being
    /// block-shared channel state.
    pub(crate) fn ybar_at(&self, i: usize, k: usize) -> Complex<F> {
        self.ys.ybars[(i, k)]
    }
}

impl<F: Float> BlockYs<F> {
    /// Apply `chan`'s `Qᴴ` to every receive vector of `frames` in one
    /// batched sweep, and complete `prep` as subcarrier 0's problem: the
    /// channel state is copied into it once for the whole block.
    fn apply(
        &mut self,
        frames: &[FrameData],
        constellation: &Constellation,
        chan: &mut ChannelPrep<F>,
        prep: &mut Prepared<F>,
    ) {
        assert!(!frames.is_empty(), "empty coherence block");
        let (n, m) = chan.shape();
        assert_eq!(
            frames[0].h.shape(),
            (n, m),
            "frame does not match the channel"
        );
        self.ys.resize_for_overwrite(n, frames.len());
        for (b, f) in frames.iter().enumerate() {
            assert!(
                b == 0 || f.h == frames[0].h,
                "block frame {b} does not share the block channel"
            );
            assert_eq!(f.y.len(), n, "frame {b}: y length must equal rows of H");
            for i in 0..n {
                self.ys[(i, b)] = f.y[i].cast();
            }
        }
        chan.factors
            .apply_qty_block_into(&self.ys, &mut self.ybars, &mut self.tails);
        self.len = frames.len();

        prep.r.resize_for_overwrite(m, m);
        for i in 0..m {
            for j in 0..m {
                prep.r[(i, j)] = chan.r[(i, j)];
            }
        }
        prep.perm.clone_from(&chan.perm);
        prep.points.clear();
        prep.points
            .extend(constellation.points().iter().map(|p| p.cast()));
        prep.order = constellation.order();
        // Same accounting convention as the per-vector cached path: each
        // subcarrier is charged the full factorization cost so flop-based
        // complexity numbers stay comparable across serving strategies.
        prep.prep_flops = chan.prep_flops;
        row_blocks_into(&prep.r, &mut prep.row_blocks);
        prep.load_frame(&frames[0]);
        prep.ybar.clear();
        prep.ybar.extend((0..m).map(|i| self.ybars[(i, 0)]));
        prep.tail_energy = self.tails[0];
    }
}

/// Prepare a whole coherence block: factor `frames[0]`'s channel once
/// (all frames must carry the same `H`), apply `Qᴴ` to every receive
/// vector in one batched sweep, and complete `prep` as subcarrier 0's
/// problem ([`BlockPrep::fill_prepared`] moves it to the others).
/// Allocation-free once the block shape has been seen.
///
/// # Panics
/// If `frames` is empty or any frame's `H` differs from `frames[0]`'s.
pub fn prepare_frame_block_into<F: Float>(
    frames: &[FrameData],
    constellation: &Constellation,
    ordering: ColumnOrdering,
    scratch: &mut PrepScratch<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
) {
    assert!(!frames.is_empty(), "empty coherence block");
    prepare_channel_into(&frames[0], ordering, scratch, &mut block.chan);
    block.ys.apply(frames, constellation, &mut block.chan, prep);
}

/// Prepare a coherence block from an already factored channel — the
/// block form of [`prepare_with_channel_into`], for a serving layer that
/// caches factorizations: apply `chan`'s `Qᴴ` to every receive vector of
/// `frames` in one batched sweep and complete `prep` as subcarrier 0's
/// problem. Bit-identical to [`prepare_frame_block_into`] of the same
/// frames, provided `chan` was factored from their shared `H` under the
/// tier's ordering. Allocation-free once the block shape has been seen.
///
/// # Panics
/// If `frames` is empty, its channel shape differs from `chan`'s, or any
/// frame's `H` differs from `frames[0]`'s.
pub fn prepare_block_with_channel_into<F: Float>(
    frames: &[FrameData],
    constellation: &Constellation,
    chan: &mut ChannelPrep<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
) {
    block.ys.apply(frames, constellation, chan, prep);
}

impl<F: Float> Prepared<F> {
    /// An empty placeholder to preprocess into (see
    /// [`preprocess_ordered_into`]); not a valid decoding problem until
    /// filled.
    pub fn empty() -> Self {
        Prepared {
            r: Matrix::zeros(0, 0),
            ybar: Vec::new(),
            tail_energy: F::ZERO,
            points: Vec::new(),
            n_tx: 0,
            order: 0,
            prep_flops: 0,
            perm: Vec::new(),
            row_blocks: Vec::new(),
            h: Matrix::zeros(0, 0),
            y: Vec::new(),
            noise_variance: 0.0,
        }
    }

    /// Copy the frame view (`H`, `y`, `σ²`) into this problem without
    /// touching the QR factors — allocation-free once the shape has been
    /// seen. Detectors that skip tree preprocessing entirely (the linear
    /// family) use this as their whole preparation step.
    pub fn load_frame(&mut self, frame: &FrameData) {
        let (n, m) = frame.h.shape();
        self.h.resize_for_overwrite(n, m);
        for i in 0..n {
            for j in 0..m {
                self.h[(i, j)] = frame.h[(i, j)];
            }
        }
        self.y.clear();
        self.y.extend_from_slice(&frame.y);
        self.noise_variance = frame.noise_variance;
        self.n_tx = m;
    }

    /// Map a depth-order tree path (`path[d]` = tree level `d`'s symbol)
    /// back to physical antenna order, undoing the column permutation.
    pub fn indices_from_path(&self, path: &[usize]) -> Vec<usize> {
        let mut physical = Vec::new();
        self.indices_from_path_into(path, &mut physical);
        physical
    }

    /// [`Prepared::indices_from_path`] into a caller-owned vector.
    pub fn indices_from_path_into(&self, path: &[usize], out: &mut Vec<usize>) {
        let m = self.n_tx;
        assert_eq!(path.len(), m, "need a complete leaf path");
        out.clear();
        out.resize(m, 0);
        for (d, &c) in path.iter().enumerate() {
            out[self.perm[m - 1 - d]] = c;
        }
    }

    /// Full metric `‖y − Hs‖²` of a complete symbol-index vector in
    /// *tree antenna order* (`indices[j]` is tree column `j`'s symbol;
    /// identical to physical order under [`ColumnOrdering::Natural`]).
    pub fn full_metric(&self, indices: &[usize]) -> F {
        assert_eq!(indices.len(), self.n_tx);
        let s: Vec<Complex<F>> = indices.iter().map(|&i| self.points[i]).collect();
        let rs = self.r.mul_vec(&s);
        let mut acc = self.tail_energy;
        for (yi, ri) in self.ybar.iter().zip(rs.iter()) {
            acc += (*yi - *ri).norm_sqr();
        }
        acc
    }

    /// Exact [`ChannelObservables`] of this prepared problem, read off
    /// the `R` diagonal (one pass over `M` entries — free relative to
    /// the QR that produced it).
    pub fn observables(&self) -> ChannelObservables {
        ChannelObservables::from_gains((0..self.n_tx).map(|i| {
            let rii = self.r[(i, i)];
            rii.norm_sqr().to_f64()
        }))
    }
}

/// Pre-decode complexity observables of one channel use — the features
/// the serve layer's predictive admission control conditions on.
///
/// Sphere-decoder search cost at a given SNR is driven by how well
/// conditioned the channel is (the Dabah et al. trade-off curves): a
/// small `|r_ii|` anywhere on the diagonal means one tree level barely
/// discriminates between hypotheses and the search fans out. Two
/// constructors produce the same shape:
///
/// * [`Prepared::observables`] — exact, from the `R` diagonal
///   (`gain_i = |r_ii|²`, so the product is `det(HᴴH)`);
/// * [`ChannelObservables::from_channel`] — a pre-QR proxy from the
///   squared column norms of `H` (Hadamard bound on the same product),
///   cheap enough to run at admission time before any factorization.
///
/// All fields are finite for any input (non-finite or non-positive gains
/// degrade to the worst-case conditioning), so downstream bucketing is
/// total.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelObservables {
    /// Smallest per-stream energy (`min_i |r_ii|²` or `min_j ‖h_j‖²`).
    pub min_gain_sqr: f64,
    /// Largest per-stream energy.
    pub max_gain_sqr: f64,
    /// `Σᵢ log2 gain_i` — `log2 det(HᴴH)` exactly when built from `R`,
    /// its Hadamard upper bound when built from `H`.
    pub log2_gain_product: f64,
}

impl ChannelObservables {
    /// Worst-case conditioning reported when a gain is zero, negative or
    /// non-finite (a singular or corrupt channel): effectively "assume
    /// the search will fan out maximally".
    pub const WORST_CONDITION_LOG2: f64 = 64.0;

    /// Build from an iterator of per-stream squared gains.
    pub fn from_gains<I: IntoIterator<Item = f64>>(gains: I) -> Self {
        let mut min_gain_sqr = f64::INFINITY;
        let mut max_gain_sqr = 0.0f64;
        let mut log2_gain_product = 0.0f64;
        let mut degenerate = false;
        let mut n = 0usize;
        for g in gains {
            n += 1;
            if !(g.is_finite() && g > 0.0) {
                degenerate = true;
                continue;
            }
            min_gain_sqr = min_gain_sqr.min(g);
            max_gain_sqr = max_gain_sqr.max(g);
            log2_gain_product += g.log2();
        }
        if n == 0 || degenerate || min_gain_sqr > max_gain_sqr {
            // Empty or singular channel: pin to the worst conditioning
            // so the predictor assumes maximal fan-out.
            return ChannelObservables {
                min_gain_sqr: 0.0,
                max_gain_sqr: max_gain_sqr.max(0.0),
                log2_gain_product: f64::MIN_EXP as f64,
            };
        }
        ChannelObservables {
            min_gain_sqr,
            max_gain_sqr,
            log2_gain_product,
        }
    }

    /// Pre-QR proxy from the squared column norms of the channel matrix
    /// (Hadamard bound on `det(HᴴH)`); `O(NM)`, no factorization.
    pub fn from_channel(h: &Matrix<f64>) -> Self {
        ChannelObservables::from_gains(
            (0..h.cols()).map(|j| (0..h.rows()).map(|i| h[(i, j)].norm_sqr()).sum::<f64>()),
        )
    }

    /// Condition proxy `log2(κ²) / 2 = log2(max gain / min gain) / 2` —
    /// 0 for a perfectly balanced channel, growing as the weakest stream
    /// collapses. Always finite: degenerate channels report
    /// [`ChannelObservables::WORST_CONDITION_LOG2`].
    pub fn condition_log2(&self) -> f64 {
        if !(self.min_gain_sqr > 0.0)
            || !self.min_gain_sqr.is_finite()
            || !self.max_gain_sqr.is_finite()
        {
            return Self::WORST_CONDITION_LOG2;
        }
        ((self.max_gain_sqr / self.min_gain_sqr).log2() / 2.0)
            .clamp(0.0, Self::WORST_CONDITION_LOG2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::Modulation;

    fn frame(n: usize, m: Modulation, seed: u64) -> (Constellation, FrameData) {
        let c = Constellation::new(m);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = FrameData::generate(n, n, &c, 0.1, &mut rng);
        (c, f)
    }

    #[test]
    fn full_metric_matches_direct_computation() {
        let (c, f) = frame(6, Modulation::Qam4, 3);
        let prep: Prepared<f64> = preprocess(&f, &c);
        // Metric of the true transmitted vector, both ways.
        let direct = {
            let hs = f.h.mul_vec(&f.tx.symbols);
            sd_math::vector::dist_sqr(&f.y, &hs)
        };
        let via_prep = prep.full_metric(&f.tx.indices);
        assert!(
            (direct - via_prep).abs() < 1e-9,
            "direct {direct} != prep {via_prep}"
        );
    }

    #[test]
    fn square_channel_has_zero_tail() {
        let (c, f) = frame(5, Modulation::Qam16, 4);
        let prep: Prepared<f64> = preprocess(&f, &c);
        assert!(prep.tail_energy.abs() < 1e-18);
        assert_eq!(prep.r.shape(), (5, 5));
        assert_eq!(prep.ybar.len(), 5);
        assert_eq!(prep.order, 16);
    }

    #[test]
    fn rectangular_channel_tail_is_positive() {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(9);
        let f = FrameData::generate(8, 4, &c, 0.5, &mut rng);
        let prep: Prepared<f64> = preprocess(&f, &c);
        assert!(prep.tail_energy > 0.0, "noisy overdetermined system");
        // Metric identity must still hold.
        let direct = {
            let hs = f.h.mul_vec(&f.tx.symbols);
            sd_math::vector::dist_sqr(&f.y, &hs)
        };
        assert!((direct - prep.full_metric(&f.tx.indices)).abs() < 1e-9);
    }

    #[test]
    fn f32_preprocessing_close_to_f64() {
        let (c, f) = frame(8, Modulation::Qam4, 11);
        let p64: Prepared<f64> = preprocess(&f, &c);
        let p32: Prepared<f32> = preprocess(&f, &c);
        let m64 = p64.full_metric(&f.tx.indices);
        let m32 = p32.full_metric(&f.tx.indices) as f64;
        assert!((m64 - m32).abs() < 1e-3 * (1.0 + m64));
    }

    #[test]
    fn natural_ordering_permutation_is_identity() {
        let (c, f) = frame(6, Modulation::Qam4, 17);
        let prep: Prepared<f64> = preprocess(&f, &c);
        assert_eq!(prep.perm, vec![0, 1, 2, 3, 4, 5]);
        // indices_from_path inverts the depth order.
        let path = vec![3usize, 1, 0, 2, 3, 1];
        let phys = prep.indices_from_path(&path);
        assert_eq!(phys, vec![1, 3, 2, 0, 1, 3]);
    }

    #[test]
    fn ordered_preprocessing_sorts_column_norms() {
        let (c, f) = frame(8, Modulation::Qam4, 18);
        for ordering in [
            ColumnOrdering::NormDescending,
            ColumnOrdering::NormAscending,
        ] {
            let prep: Prepared<f64> = preprocess_ordered(&f, &c, ordering);
            let norms: Vec<f64> = prep
                .perm
                .iter()
                .map(|&j| (0..8).map(|i| f.h[(i, j)].norm_sqr()).sum::<f64>())
                .collect();
            let sorted_ok = match ordering {
                // Detected-first = last tree column = largest norm.
                ColumnOrdering::NormDescending => norms.windows(2).all(|w| w[0] <= w[1]),
                ColumnOrdering::NormAscending => norms.windows(2).all(|w| w[0] >= w[1]),
                ColumnOrdering::Natural => unreachable!(),
            };
            assert!(sorted_ok, "{ordering:?}: {norms:?}");
        }
    }

    #[test]
    fn ordered_metric_identity_still_holds() {
        // The permuted problem must evaluate the same physical hypothesis
        // to the same metric.
        let (c, f) = frame(6, Modulation::Qam4, 19);
        let natural: Prepared<f64> = preprocess(&f, &c);
        let ordered: Prepared<f64> = preprocess_ordered(&f, &c, ColumnOrdering::NormDescending);
        // Physical hypothesis -> tree order for the ordered problem.
        let physical = vec![1usize, 2, 3, 0, 1, 2];
        let tree: Vec<usize> = ordered.perm.iter().map(|&j| physical[j]).collect();
        let m_nat = natural.full_metric(&physical);
        let m_ord = ordered.full_metric(&tree);
        assert!((m_nat - m_ord).abs() < 1e-9, "{m_nat} vs {m_ord}");
    }

    #[test]
    fn preprocess_into_is_bit_identical_to_fresh() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut prep = Prepared::empty();
        for (seed, ordering) in [
            (21u64, ColumnOrdering::Natural),
            (22, ColumnOrdering::NormDescending),
            (23, ColumnOrdering::NormAscending),
            (24, ColumnOrdering::Natural),
        ] {
            let (c, f) = frame(7, Modulation::Qam16, seed);
            let fresh: Prepared<f64> = preprocess_ordered(&f, &c, ordering);
            preprocess_ordered_into(&f, &c, ordering, &mut scratch, &mut prep);
            assert_eq!(fresh.r, prep.r, "{ordering:?}: R differs");
            assert_eq!(fresh.ybar, prep.ybar);
            assert_eq!(fresh.tail_energy.to_bits(), prep.tail_energy.to_bits());
            assert_eq!(fresh.points, prep.points);
            assert_eq!(fresh.n_tx, prep.n_tx);
            assert_eq!(fresh.order, prep.order);
            assert_eq!(fresh.prep_flops, prep.prep_flops);
            assert_eq!(fresh.perm, prep.perm);
            assert_eq!(fresh.row_blocks.len(), prep.row_blocks.len());
            for (a, b) in fresh.row_blocks.iter().zip(prep.row_blocks.iter()) {
                assert_eq!(a, b);
            }
            assert_eq!(fresh.h, prep.h, "{ordering:?}: frame view H differs");
            assert_eq!(fresh.y, prep.y);
            assert_eq!(
                fresh.noise_variance.to_bits(),
                prep.noise_variance.to_bits()
            );
        }
    }

    #[test]
    fn channel_split_is_bit_identical_to_fused_preprocessing() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut chan: ChannelPrep<f64> = ChannelPrep::new();
        let mut split = Prepared::empty();
        let mut fused = Prepared::empty();
        for (seed, ordering) in [
            (41u64, ColumnOrdering::Natural),
            (42, ColumnOrdering::NormDescending),
            (43, ColumnOrdering::NormAscending),
        ] {
            let (c, f) = frame(7, Modulation::Qam16, seed);
            prepare_channel_into(&f, ordering, &mut scratch, &mut chan);
            assert_eq!(chan.shape(), (7, 7));
            // Several received vectors against the one factored channel —
            // the coherence-block shape the serve cache exploits.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..4 {
                let mut fy = f.clone();
                let other = FrameData::generate(7, 7, &c, 0.1, &mut rng);
                fy.y = other.y.clone();
                prepare_with_channel_into(&fy, &c, &mut scratch, &mut chan, &mut split);
                preprocess_ordered_into(&fy, &c, ordering, &mut scratch, &mut fused);
                assert_eq!(fused.r, split.r, "{ordering:?}: R differs");
                assert_eq!(fused.ybar, split.ybar, "{ordering:?}: ybar differs");
                assert_eq!(fused.tail_energy.to_bits(), split.tail_energy.to_bits());
                assert_eq!(fused.points, split.points);
                assert_eq!(fused.n_tx, split.n_tx);
                assert_eq!(fused.order, split.order);
                assert_eq!(fused.prep_flops, split.prep_flops);
                assert_eq!(fused.perm, split.perm);
                assert_eq!(fused.row_blocks, split.row_blocks);
                assert_eq!(fused.h, split.h);
                assert_eq!(fused.y, split.y);
                assert_eq!(
                    fused.noise_variance.to_bits(),
                    split.noise_variance.to_bits()
                );
            }
        }
    }

    #[test]
    fn block_prep_is_bit_identical_to_per_vector_channel_split() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut chan: ChannelPrep<f64> = ChannelPrep::new();
        let mut block: BlockPrep<f64> = BlockPrep::new();
        let mut cached_block: BlockPrep<f64> = BlockPrep::new();
        let mut from_block = Prepared::empty();
        let mut from_cached = Prepared::empty();
        let mut from_vec = Prepared::empty();
        for (seed, ordering) in [
            (61u64, ColumnOrdering::Natural),
            (62, ColumnOrdering::NormDescending),
            (63, ColumnOrdering::NormAscending),
        ] {
            let (c, f) = frame(6, Modulation::Qam16, seed);
            // A coherence block: one H, fresh y per subcarrier.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
            let frames: Vec<FrameData> = (0..5)
                .map(|_| {
                    let mut fk = f.clone();
                    fk.y = FrameData::generate(6, 6, &c, 0.1, &mut rng).y;
                    fk
                })
                .collect();
            prepare_frame_block_into(
                &frames,
                &c,
                ordering,
                &mut scratch,
                &mut block,
                &mut from_block,
            );
            assert_eq!(block.len(), 5);
            prepare_channel_into(&frames[0], ordering, &mut scratch, &mut chan);
            // The same block prepared from a separately factored channel,
            // the way a serving layer applies a cached factorization.
            prepare_block_with_channel_into(
                &frames,
                &c,
                &mut chan,
                &mut cached_block,
                &mut from_cached,
            );
            // Subcarrier 0's problem is complete straight out of the block
            // preparation; the later ones are moved to by `fill_prepared`.
            for (k, fk) in frames.iter().enumerate() {
                if k > 0 {
                    block.fill_prepared(k, fk, &mut from_block);
                    cached_block.fill_prepared(k, fk, &mut from_cached);
                }
                prepare_with_channel_into(fk, &c, &mut scratch, &mut chan, &mut from_vec);
                for got in [&from_block, &from_cached] {
                    assert_eq!(from_vec.r, got.r, "{ordering:?} sc {k}: R");
                    assert_eq!(from_vec.ybar, got.ybar, "{ordering:?} sc {k}: ybar");
                    assert_eq!(from_vec.tail_energy.to_bits(), got.tail_energy.to_bits());
                    assert_eq!(from_vec.points, got.points);
                    assert_eq!(from_vec.n_tx, got.n_tx);
                    assert_eq!(from_vec.order, got.order);
                    assert_eq!(from_vec.prep_flops, got.prep_flops);
                    assert_eq!(from_vec.perm, got.perm);
                    assert_eq!(from_vec.row_blocks, got.row_blocks);
                    assert_eq!(from_vec.h, got.h);
                    assert_eq!(from_vec.y, got.y);
                    assert_eq!(
                        from_vec.noise_variance.to_bits(),
                        got.noise_variance.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not share the block channel")]
    fn block_with_mixed_channels_panics() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut block: BlockPrep<f64> = BlockPrep::new();
        let (c, f0) = frame(5, Modulation::Qam4, 71);
        let mut rng = StdRng::seed_from_u64(72);
        let f1 = FrameData::generate(5, 5, &c, 0.1, &mut rng);
        prepare_frame_block_into(
            &[f0, f1],
            &c,
            ColumnOrdering::Natural,
            &mut scratch,
            &mut block,
            &mut Prepared::empty(),
        );
    }

    /// A cached factorization is applied to a block only if every frame
    /// carries the channel it was factored from: a later subcarrier whose
    /// `H` was changed must fail loudly, not decode against `frames[0]`'s.
    #[test]
    #[should_panic(expected = "does not share the block channel")]
    fn cached_block_with_mixed_channels_panics() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut chan: ChannelPrep<f64> = ChannelPrep::new();
        let (c, f0) = frame(5, Modulation::Qam4, 73);
        prepare_channel_into(&f0, ColumnOrdering::Natural, &mut scratch, &mut chan);
        let mut rng = StdRng::seed_from_u64(74);
        let f1 = FrameData::generate(5, 5, &c, 0.1, &mut rng);
        prepare_block_with_channel_into(
            &[f0, f1],
            &c,
            &mut chan,
            &mut BlockPrep::new(),
            &mut Prepared::empty(),
        );
    }

    #[test]
    #[should_panic(expected = "frame does not match the channel")]
    fn channel_shape_mismatch_panics() {
        let mut scratch: PrepScratch<f64> = PrepScratch::new();
        let mut chan: ChannelPrep<f64> = ChannelPrep::new();
        let (c, f) = frame(6, Modulation::Qam4, 44);
        prepare_channel_into(&f, ColumnOrdering::Natural, &mut scratch, &mut chan);
        let (_, small) = frame(5, Modulation::Qam4, 45);
        let mut prep = Prepared::empty();
        prepare_with_channel_into(&small, &c, &mut scratch, &mut chan, &mut prep);
    }

    #[test]
    fn indices_from_path_into_matches_allocating_variant() {
        let (c, f) = frame(6, Modulation::Qam4, 31);
        let prep: Prepared<f64> = preprocess_ordered(&f, &c, ColumnOrdering::NormDescending);
        let path = vec![3usize, 1, 0, 2, 3, 1];
        let mut buf = vec![9usize; 2];
        prep.indices_from_path_into(&path, &mut buf);
        assert_eq!(buf, prep.indices_from_path(&path));
    }

    #[test]
    fn flops_counter_positive_and_monotone() {
        assert!(qr_flops(10, 10) > 0);
        assert!(qr_flops(20, 20) > qr_flops(10, 10));
        assert!(qr_flops(16, 8) > qr_flops(8, 8));
    }

    /// The exact observables (R diagonal) and the pre-QR proxy (column
    /// norms) must agree on the invariants the predictor relies on: the
    /// exact gain product is `log2 det(HᴴH)` and the Hadamard bound from
    /// `H` is an upper bound on it; both condition proxies are finite.
    #[test]
    fn observables_exact_vs_hadamard_bound() {
        for seed in 40..46 {
            let (c, f) = frame(6, Modulation::Qam16, seed);
            let prep: Prepared<f64> = preprocess(&f, &c);
            let exact = prep.observables();
            let proxy = ChannelObservables::from_channel(&f.h);
            assert!(
                exact.log2_gain_product <= proxy.log2_gain_product + 1e-9,
                "Hadamard bound violated: exact {} > proxy {}",
                exact.log2_gain_product,
                proxy.log2_gain_product
            );
            for o in [&exact, &proxy] {
                assert!(o.min_gain_sqr > 0.0 && o.min_gain_sqr <= o.max_gain_sqr);
                assert!(o.condition_log2().is_finite());
                assert!(o.condition_log2() >= 0.0);
            }
        }
    }

    /// Degenerate inputs (empty, zero, NaN gains) must not poison the
    /// observables: everything stays finite and reports the worst-case
    /// conditioning, so downstream bucketing is total.
    #[test]
    fn observables_are_total_on_degenerate_channels() {
        for obs in [
            ChannelObservables::from_gains([]),
            ChannelObservables::from_gains([0.0, 1.0]),
            ChannelObservables::from_gains([f64::NAN, 1.0]),
            ChannelObservables::from_gains([f64::INFINITY]),
            ChannelObservables::from_gains([-1.0, 2.0]),
        ] {
            assert!(obs.condition_log2().is_finite());
            assert_eq!(
                obs.condition_log2(),
                ChannelObservables::WORST_CONDITION_LOG2
            );
            assert!(obs.log2_gain_product.is_finite());
        }
    }
}
