//! Complex QR decomposition.
//!
//! Eq. (4) of the paper rewrites the ML metric `‖y − Hs‖²` as
//! `‖ȳ − Rs‖²` with `H = QR` and `ȳ = Q^H y`, which makes the metric
//! separable level-by-level (Eq. (5)/(6)) — the property the search tree is
//! built on. This module implements Householder QR (numerically robust
//! default), its sorted twin that pivots the columns inside the same sweep
//! ([`QrFactors::factor_sorted`], Wübben et al.'s SQRD), plus a modified
//! Gram–Schmidt variant used as a cross-check in tests.
//!
//! One kernel, `reflect`, applies every Householder reflector: to the
//! trailing columns of the work matrix during the factorization, to a
//! block of receive vectors in [`QrFactors::apply_qty_block`], and to the
//! identity's columns when [`qr`] forms `Q`. The matrix it updates is held
//! as split real and imaginary planes, row-major, and it updates
//! `LANES` columns side by side. Each lane runs its own column's
//! operation sequence of the textbook scalar sweep — the same `mul_acc`
//! fused multiply-adds in row order for `w = τ·vᴴx`, the same products and
//! subtractions for `x −= w·v` — so `R`, the sorted permutation, `Qᴴy` and
//! the tail are bit for bit those of a sweep that updates one interleaved
//! complex column at a time.

use crate::complex::Complex;
use crate::float::Float;
use crate::matrix::Matrix;
use crate::vector::CVector;

#[cfg(test)]
mod oracle;

/// Columns one pass of [`reflect`] updates side by side: trailing columns
/// of a factorization, or receive vectors of a block. Eight `f64`s fill
/// two 256-bit registers per plane.
const LANES: usize = 8;

/// Full QR decomposition `A = Q R` of an `n × m` matrix (`n ≥ m`):
/// `Q` is `n × n` unitary, `R` is `n × m` upper triangular.
#[derive(Clone, Debug)]
pub struct QrDecomposition<F: Float> {
    /// Unitary factor.
    pub q: Matrix<F>,
    /// Upper-triangular factor (same shape as the input).
    pub r: Matrix<F>,
}

/// A row-major complex matrix as split real and imaginary planes, each row
/// `stride` reals long. Columns past the matrix's own are padding that a
/// lane chunk may run over; they never reach an output.
#[derive(Clone, Debug, Default)]
struct Planes<F> {
    re: Vec<F>,
    im: Vec<F>,
    stride: usize,
}

impl<F: Float> Planes<F> {
    /// `rows × stride` planes, every entry zero.
    fn zeroed(&mut self, rows: usize, stride: usize) {
        self.stride = stride;
        for p in [&mut self.re, &mut self.im] {
            p.clear();
            p.resize(rows * stride, F::ZERO);
        }
    }

    fn get(&self, i: usize, j: usize) -> Complex<F> {
        let o = i * self.stride + j;
        Complex::new(self.re[o], self.im[o])
    }

    fn set(&mut self, i: usize, j: usize, x: Complex<F>) {
        let o = i * self.stride + j;
        self.re[o] = x.re;
        self.im[o] = x.im;
    }

    /// The first `rows` rows of the columns `cols`, in that order, as an
    /// interleaved matrix.
    fn write_into(&self, rows: usize, cols: &[usize], out: &mut Matrix<F>) {
        out.resize_for_overwrite(rows, cols.len());
        for (i, row) in out
            .as_mut_slice()
            .chunks_exact_mut(cols.len().max(1))
            .enumerate()
        {
            let (re, im) = (&self.re[i * self.stride..], &self.im[i * self.stride..]);
            for (x, &c) in row.iter_mut().zip(cols) {
                *x = Complex::new(re[c], im[c]);
            }
        }
    }
}

/// Apply the reflector `I − τ·v·vᴴ` to every column of `a` over rows
/// `row0..row0 + v.len()`, skipping the lane chunks that hold no column
/// `live` selects; `v` comes as its real and imaginary planes.
///
/// A plane one column wide is one lane: a lone receive vector, whose
/// chain of dependent multiply-adds sets the pace whatever the width.
/// Otherwise the columns go in chunks of [`LANES`], two chunks to a pass
/// where both are live, so each row feeds enough independent chains to
/// keep the multiply-add units busy. Every lane of a pass is written:
/// lanes that `live` rejects carry no information the caller keeps.
#[inline]
fn reflect<F: Float>(
    v_re: &[F],
    v_im: &[F],
    tau: F,
    a: &mut Planes<F>,
    row0: usize,
    live: impl Fn(usize) -> bool,
) {
    if a.stride == 1 {
        reflect_lanes::<F, 1>(v_re, v_im, tau, a, row0, 0);
        return;
    }
    let chunks = a.stride / LANES;
    let live_chunk = |c: usize| (c * LANES..(c + 1) * LANES).any(&live);
    let mut c = 0;
    while c < chunks {
        if !live_chunk(c) {
            c += 1;
        } else if c + 1 < chunks && live_chunk(c + 1) {
            reflect_lanes::<F, { 2 * LANES }>(v_re, v_im, tau, a, row0, c * LANES);
            c += 2;
        } else {
            reflect_lanes::<F, LANES>(v_re, v_im, tau, a, row0, c * LANES);
            c += 1;
        }
    }
}

/// One pass of [`reflect`] over the `L` columns from `c0`.
///
/// Lane `l` is one column `x`, and it performs exactly the scalar sweep's
/// sequence for that column: `w = 0`, then for each row in order
/// `Complex::mul_acc(w, conj(v_i), x_i)` (four fused multiply-adds),
/// `w = w·τ`, then for each row `x_i −= w·v_i` (complex product, then the
/// subtraction). Lanes never mix, so each column's bits equal the scalar
/// sweep's whatever else shares its pass.
#[inline]
fn reflect_lanes<F: Float, const L: usize>(
    v_re: &[F],
    v_im: &[F],
    tau: F,
    a: &mut Planes<F>,
    row0: usize,
    c0: usize,
) {
    let s = a.stride;
    let rows = row0 * s..(row0 + v_re.len()) * s;
    let (re, im) = (&mut a.re[rows.clone()], &mut a.im[rows]);
    let mut w_re = [F::ZERO; L];
    let mut w_im = [F::ZERO; L];
    for (i, (&vr, &vi)) in v_re.iter().zip(v_im).enumerate() {
        let o = i * s + c0;
        let x_re: [F; L] = re[o..o + L].try_into().expect("L lanes");
        let x_im: [F; L] = im[o..o + L].try_into().expect("L lanes");
        // mul_acc(w, conj(v), x): conj(v) = (vr, −vi), and mul_acc's
        // second term multiplies by −(−vi) = vi.
        let nvi = -vi;
        for l in 0..L {
            w_re[l] = vr.mul_add(x_re[l], w_re[l]);
            w_re[l] = vi.mul_add(x_im[l], w_re[l]);
            w_im[l] = vr.mul_add(x_im[l], w_im[l]);
            w_im[l] = nvi.mul_add(x_re[l], w_im[l]);
        }
    }
    // Whole-array steps from here on: lane-wise loops over the arrays in
    // place do not vectorize reliably.
    let w_re: [F; L] = std::array::from_fn(|l| w_re[l] * tau);
    let w_im: [F; L] = std::array::from_fn(|l| w_im[l] * tau);
    for (i, (&vr, &vi)) in v_re.iter().zip(v_im).enumerate() {
        let o = i * s + c0;
        let x_re: [F; L] = re[o..o + L].try_into().expect("L lanes");
        let x_im: [F; L] = im[o..o + L].try_into().expect("L lanes");
        let new_re: [F; L] = std::array::from_fn(|l| x_re[l] - (w_re[l] * vr - w_im[l] * vi));
        let new_im: [F; L] = std::array::from_fn(|l| x_im[l] - (w_re[l] * vi + w_im[l] * vr));
        re[o..o + L].copy_from_slice(&new_re);
        im[o..o + L].copy_from_slice(&new_im);
    }
}

/// Offset of reflector `k` in the packed reflector planes of an `n`-row
/// factorization: reflector `j` holds `n − j` entries.
fn reflector_offset(n: usize, k: usize) -> usize {
    k * (2 * n + 1 - k) / 2
}

/// Full Householder QR: `a = Q R`.
pub fn qr<F: Float>(a: &Matrix<F>) -> QrDecomposition<F> {
    let n = a.rows();
    let mut f = QrFactors::new();
    f.load(a, None, |x| x);
    f.sweep(None);
    let mut r = Matrix::zeros(0, 0);
    f.a.write_into(n, &f.order, &mut r);
    // Q = H_0 … H_{m-1}: apply Q to each identity column, one lane each.
    let mut e = QtyBlock::new();
    e.reset(n, n);
    for c in 0..n {
        e.set(c, c, Complex::one());
    }
    for (k, &tau) in f.taus.iter().enumerate().rev() {
        if tau == F::ZERO {
            continue;
        }
        let v = reflector_offset(n, k)..reflector_offset(n, k + 1);
        reflect(&f.v_re[v.clone()], &f.v_im[v], tau, &mut e.y, k, |_| true);
    }
    let mut q = Matrix::zeros(0, 0);
    let identity: Vec<usize> = (0..n).collect();
    e.y.write_into(n, &identity, &mut q);
    QrDecomposition { q, r }
}

/// Decoder-oriented QR: factorizes `h` and simultaneously computes
/// `ȳ = Q^H y`, returning the thin `m × m` upper-triangular `R` and the
/// first `m` entries of `ȳ` (the only parts the tree search uses), plus the
/// residual energy `‖ȳ[m..]‖²` that is constant over all hypotheses.
pub fn qr_with_qty<F: Float>(h: &Matrix<F>, y: &[Complex<F>]) -> (Matrix<F>, CVector<F>, F) {
    assert_eq!(y.len(), h.rows(), "y length must equal rows of H");
    let mut factors = QrFactors::new();
    let mut r = Matrix::zeros(0, 0);
    factors.factor(h, &mut r);
    let mut ybar = Vec::new();
    let tail_energy = factors.apply_qty_into(y, &mut ybar);
    (r, ybar, tail_energy)
}

/// The channel-dependent half of a decoder QR, split from the
/// receive-vector half so it can be cached and reused across frames that
/// share one `H` (channel-coherent serving): [`QrFactors::factor`] (or
/// its column-pivoting twin [`QrFactors::factor_sorted`]) runs the
/// Householder factorization (everything that touches only `H`), and
/// [`QrFactors::apply_qty_into`] / [`QrFactors::apply_qty_block`] replay
/// the stored reflectors onto fresh receive vectors. Composing the two is
/// bit-identical to [`qr_with_qty`] by construction — the factorization
/// never reads `y`, and every apply runs the same `reflect` kernel.
///
/// The work matrix lives in split planes whose rows are padded to whole
/// `LANES`-column chunks. Step `k` reflects the columns not yet placed
/// and skips the one it places: the reflector maps that column to `β·e₁`,
/// which the step writes directly.
///
/// All buffers are reused across calls, so both halves are
/// allocation-free once a problem shape has been seen.
pub struct QrFactors<F: Float> {
    /// Shape `(n, m)` of the factored matrix.
    n: usize,
    m: usize,
    /// The work matrix, `n × m` padded to whole lane chunks; `R` fills its
    /// first `m` rows once factored.
    a: Planes<F>,
    /// Householder vectors, packed: reflector `k` (`n − k` entries)
    /// starts at [`reflector_offset`]`(n, k)`.
    v_re: Vec<F>,
    v_im: Vec<F>,
    /// `τ_k = 2 / (v_kᴴ v_k)` per step; zero marks a step the applies
    /// skip.
    taus: Vec<F>,
    /// Per step, whether it reduced its column (its tail was not
    /// negligible).
    reduced: Vec<bool>,
    /// The stored column at each position of `R`: columns stay where they
    /// were loaded, and the sweep places them.
    order: Vec<usize>,
    /// During a sorted sweep: the input column each stored column holds,
    /// and which stored columns are still unplaced.
    input_cols: Vec<usize>,
    unplaced: Vec<bool>,
    /// Remaining squared column norms of a sorted factorization.
    norms: Vec<F>,
    /// Work block of [`QrFactors::apply_qty_into`] and
    /// [`QrFactors::apply_qty_block_into`].
    work: QtyBlock<F>,
}

impl<F: Float> Default for QrFactors<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning copies the factorization — the rows of the work matrix that
/// hold `R`, and the reflectors — not the work buffers. `clone_from`
/// reuses the destination's buffers, so copying a factorization over one
/// of the same shape is allocation-free.
impl<F: Float> Clone for QrFactors<F> {
    fn clone(&self) -> Self {
        let mut c = Self::new();
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, src: &Self) {
        self.n = src.n;
        self.m = src.m;
        let r_rows = ..src.m * src.a.stride;
        self.a.stride = src.a.stride;
        for (dst, from) in [(&mut self.a.re, &src.a.re), (&mut self.a.im, &src.a.im)] {
            dst.clear();
            dst.extend_from_slice(&from[r_rows]);
        }
        self.v_re.clone_from(&src.v_re);
        self.v_im.clone_from(&src.v_im);
        self.taus.clone_from(&src.taus);
        self.order.clone_from(&src.order);
    }
}

impl<F: Float> QrFactors<F> {
    /// Empty factors; buffers grow to steady state on first use.
    pub fn new() -> Self {
        QrFactors {
            n: 0,
            m: 0,
            a: Planes::default(),
            v_re: Vec::new(),
            v_im: Vec::new(),
            taus: Vec::new(),
            reduced: Vec::new(),
            order: Vec::new(),
            input_cols: Vec::new(),
            unplaced: Vec::new(),
            norms: Vec::new(),
            work: QtyBlock::new(),
        }
    }

    /// Factorize `h`, storing the Householder reflectors in `self` and
    /// writing the thin `m × m` upper-triangular factor into `r_out`.
    pub fn factor(&mut self, h: &Matrix<F>, r_out: &mut Matrix<F>) {
        self.load(h, None, |x| x);
        self.sweep(None);
        self.r_into(r_out);
    }

    /// Sorted QR (Wübben et al.'s SQRD) of `h`: [`QrFactors::factor`] with
    /// the columns pivoted inside the sweep. Before step `k` the remaining
    /// column with the least remaining norm moves to position `k`, so the
    /// weakest streams take the top of `R` and the strongest its bottom
    /// rows. Writes the permutation into `perm` (`perm[k]` is the column
    /// of `h` at position `k`).
    ///
    /// `R`, the stored reflectors and every later `Qᴴy` are bit-identical
    /// to [`QrFactors::factor`] of `h` with its columns permuted by
    /// `perm`. The pivot adds one O(n·m) norm pass and O(m) per step, and
    /// moves no column: the sweep records which stored column takes each
    /// position. It never allocates once the shape has been seen, and it is
    /// total: ties go to the lowest column of `h`, and a NaN norm is
    /// ordered by `total_cmp`.
    pub fn factor_sorted(&mut self, h: &Matrix<F>, r_out: &mut Matrix<F>, perm: &mut Vec<usize>) {
        perm.clear();
        perm.extend(0..h.cols());
        self.load(h, None, |x| x);
        self.sweep(Some(perm));
        self.r_into(r_out);
    }

    /// Factorize the columns of `h` in the order `perm` (`perm[k]` is the
    /// column of `h` placed at position `k`), each entry cast to `F` as it
    /// is read into the work planes. With `sorted`, the sweep then pivots
    /// as [`QrFactors::factor_sorted`] does and leaves the final order in
    /// `perm`; from the identity order the result is bit-identical to
    /// `factor_sorted` of the cast matrix, and otherwise to
    /// [`QrFactors::factor`] of the cast, permuted matrix. `R` stays in the
    /// factors until [`QrFactors::r_into`] writes it out.
    pub fn factor_columns<G: Float>(&mut self, h: &Matrix<G>, perm: &mut [usize], sorted: bool) {
        assert_eq!(perm.len(), h.cols(), "one position per column of h");
        self.load(h, Some(perm), Complex::cast);
        self.sweep(sorted.then_some(perm));
    }

    /// Write the thin `m × m` factor `R` of the last factorization into
    /// `r_out`.
    pub fn r_into(&self, r_out: &mut Matrix<F>) {
        self.a.write_into(self.m, &self.order, r_out);
    }

    /// Read `h` into the work planes through `cast`, its column `cols[k]`
    /// (or `k`, without `cols`) at position `k`, with the padding columns
    /// zeroed.
    fn load<G: Float>(
        &mut self,
        h: &Matrix<G>,
        cols: Option<&[usize]>,
        cast: impl Fn(Complex<G>) -> Complex<F>,
    ) {
        let (n, m) = h.shape();
        assert!(n >= m, "QR requires rows >= cols (got {n}x{m})");
        self.n = n;
        self.m = m;
        let s = m.div_ceil(LANES) * LANES;
        self.a.stride = s;
        for p in [&mut self.a.re, &mut self.a.im] {
            p.resize(n * s, F::ZERO);
        }
        for i in 0..n {
            let (src, dst) = (h.row(i), i * s..(i + 1) * s);
            let (row_re, row_im) = (&mut self.a.re[dst.clone()], &mut self.a.im[dst]);
            let mut put = |j: usize, x: Complex<G>| {
                let x = cast(x);
                (row_re[j], row_im[j]) = (x.re, x.im);
            };
            match cols {
                None => src.iter().enumerate().for_each(|(j, &x)| put(j, x)),
                Some(cols) => cols.iter().enumerate().for_each(|(j, &c)| put(j, src[c])),
            }
            row_re[m..].fill(F::ZERO);
            row_im[m..].fill(F::ZERO);
        }
    }

    /// The Householder sweep over the loaded work matrix, pivoting as a
    /// sorted QR when `perm` is given (and composing the pivots into it).
    ///
    /// Stored columns never move during the sweep: `order[k]` is the
    /// stored column that takes position `k`, and each step's lane passes
    /// run over the chunks that still hold an unplaced column. No step
    /// stores single entries into rows that the next step's passes load
    /// whole, which would stall those loads: a pivot moves no column
    /// (reading `R` goes through `order`), and the entries below the
    /// diagonal of placed columns are written once every step is done.
    fn sweep(&mut self, perm: Option<&mut [usize]>) {
        let (n, m) = (self.n, self.m);
        let steps = m.min(n.saturating_sub(1));
        let QrFactors {
            a,
            v_re,
            v_im,
            taus,
            reduced,
            order,
            input_cols,
            unplaced,
            norms,
            ..
        } = self;
        let s = a.stride;
        // Every reflector entry is written by its step's column gather.
        v_re.resize(reflector_offset(n, steps), F::ZERO);
        v_im.resize(reflector_offset(n, steps), F::ZERO);
        taus.clear();
        reduced.clear();
        order.clear();
        order.extend(0..m);
        unplaced.clear();
        unplaced.resize(s, false);
        unplaced[..m].fill(true);
        if let Some(perm) = perm.as_deref() {
            input_cols.clear();
            input_cols.extend_from_slice(perm);
            // The full squared column norms: one pass over the rows, the
            // columns side by side.
            norms.clear();
            norms.resize(m, F::ZERO);
            for i in 0..n {
                let row = i * s..i * s + m;
                let (row_re, row_im) = (&a.re[row.clone()], &a.im[row]);
                for ((nj, &re), &im) in norms.iter_mut().zip(row_re).zip(row_im) {
                    *nj += re * re + im * im;
                }
            }
        }
        for k in 0..steps {
            if perm.is_some() {
                select_pivot(order, norms, input_cols, k);
            }
            let c = order[k];
            unplaced[c] = false;
            let v = reflector_offset(n, k)..reflector_offset(n, k + 1);
            let (vr, vi) = (&mut v_re[v.clone()], &mut v_im[v]);
            // Column c's tail and its squared norm, in row order.
            let mut norm_sqr = F::ZERO;
            for (i, (xr, xi)) in vr.iter_mut().zip(vi.iter_mut()).enumerate() {
                let o = (k + i) * s + c;
                (*xr, *xi) = (a.re[o], a.im[o]);
                norm_sqr += *xr * *xr + *xi * *xi;
            }
            let norm_x = norm_sqr.sqrt();
            // A negligible tail skips the step: no update, τ = 0.
            let skip = norm_x <= F::epsilon();
            let tau = if skip {
                F::ZERO
            } else {
                let (ar, ai) = (vr[0], vi[0]);
                let alpha_abs = (ar * ar + ai * ai).sqrt();
                // β = −(α/|α|)·‖x‖, or −‖x‖ when α == 0.
                let (br, bi) = if alpha_abs > F::ZERO {
                    let scale = -norm_x / alpha_abs;
                    (ar * scale, ai * scale)
                } else {
                    (-norm_x, F::ZERO)
                };
                // v = x − β·e₁; vᴴv = 2(‖x‖² + |x₀|·‖x‖), so τ = 2/(vᴴv).
                vr[0] = ar - br;
                vi[0] = ai - bi;
                let vhv = norm_x * norm_x + alpha_abs * norm_x;
                let tau = if vhv > F::ZERO { F::ONE / vhv } else { F::ZERO };
                reflect(vr, vi, tau, a, k, |j| unplaced[j]);
                // Column c becomes β·e₁ exactly; its zeros are written once
                // the sweep is done (below), since later passes run over it.
                a.set(k, c, Complex::new(br, bi));
                tau
            };
            taus.push(tau);
            reduced.push(!skip);
            if perm.is_some() {
                // Row k of R is final: each unplaced column's remaining
                // norm loses |r_kj|².
                for &j in &order[k + 1..] {
                    let (re, im) = (a.re[k * s + j], a.im[k * s + j]);
                    norms[j] -= re * re + im * im;
                }
            }
        }
        // The lane passes also ran over placed columns, below their
        // diagonal. A reduced column is zero there; a skipped column keeps
        // the tail it had at its step, which its reflector slot holds.
        for (k, &r) in reduced.iter().enumerate() {
            let v = reflector_offset(n, k)..reflector_offset(n, k + 1);
            let (vr, vi) = (&v_re[v.clone()], &v_im[v]);
            for i in k + 1..n {
                let x = if r {
                    Complex::zero()
                } else {
                    Complex::new(vr[i - k], vi[i - k])
                };
                a.set(i, order[k], x);
            }
        }
        if let Some(perm) = perm {
            for (p, &c) in perm.iter_mut().zip(order.iter()) {
                *p = input_cols[c];
            }
        }
    }

    /// Apply the stored `Q^H` to `y`, writing the first `m` entries into
    /// `ybar_out` and returning the tail energy `‖(Q^H y)[m..]‖²`. Must
    /// follow a [`QrFactors::factor`] of an `n × m` matrix with
    /// `y.len() == n`.
    pub fn apply_qty_into(&mut self, y: &[Complex<F>], ybar_out: &mut CVector<F>) -> F {
        assert_eq!(
            y.len(),
            self.n,
            "y length must equal rows of the factored H"
        );
        let mut work = std::mem::take(&mut self.work);
        work.reset(self.n, 1);
        for (i, &x) in y.iter().enumerate() {
            work.set(i, 0, x);
        }
        self.apply_qty_block(&mut work);
        work.ybar_into(0, ybar_out);
        let tail_energy = work.tail(0);
        self.work = work;
        tail_energy
    }

    /// Batched [`QrFactors::apply_qty_into`] on matrices: `ys` is `n × B`
    /// (one column per receive vector); on return `ybars` is `m × B`
    /// (column `b` is `(Q^H y_b)[..m]`) and `tails[b]` is
    /// `‖(Q^H y_b)[m..]‖²`. Every column is bit-identical to a standalone
    /// [`QrFactors::apply_qty_into`] of that `y`. The serving path fills a
    /// [`QtyBlock`] directly and calls [`QrFactors::apply_qty_block`].
    pub fn apply_qty_block_into(
        &mut self,
        ys: &Matrix<F>,
        ybars: &mut Matrix<F>,
        tails: &mut Vec<F>,
    ) {
        assert_eq!(
            ys.rows(),
            self.n,
            "ys rows must equal rows of the factored H"
        );
        let b = ys.cols();
        let mut work = std::mem::take(&mut self.work);
        work.reset(self.n, b);
        let s = work.y.stride;
        for (i, row) in ys.as_slice().chunks_exact(b.max(1)).enumerate() {
            let (re, im) = (&mut work.y.re[i * s..][..b], &mut work.y.im[i * s..][..b]);
            for ((re, im), x) in re.iter_mut().zip(im.iter_mut()).zip(row) {
                (*re, *im) = (x.re, x.im);
            }
        }
        self.apply_qty_block(&mut work);
        ybars.resize_for_overwrite(self.m, b);
        for (i, row) in ybars.as_mut_slice().chunks_exact_mut(b.max(1)).enumerate() {
            let (re, im) = (&work.y.re[i * s..][..b], &work.y.im[i * s..][..b]);
            for ((x, &re), &im) in row.iter_mut().zip(re).zip(im) {
                *x = Complex::new(re, im);
            }
        }
        tails.clear();
        tails.extend((0..b).map(|col| work.tail(col)));
        self.work = work;
    }

    /// Apply the stored `Q^H` to every receive vector of `block` in place,
    /// the vectors side by side in lanes, and record each one's tail
    /// energy `‖(Q^H y_b)[m..]‖²`. Every vector comes out bit-identical to
    /// a standalone [`QrFactors::apply_qty_into`] of it.
    pub fn apply_qty_block(&self, block: &mut QtyBlock<F>) {
        let (n, m) = (self.n, self.m);
        assert_eq!(
            block.n, n,
            "receive vectors must have the factored H's rows"
        );
        for (k, &tau) in self.taus.iter().enumerate() {
            if tau == F::ZERO {
                continue;
            }
            let v = reflector_offset(n, k)..reflector_offset(n, k + 1);
            reflect(
                &self.v_re[v.clone()],
                &self.v_im[v],
                tau,
                &mut block.y,
                k,
                |_| true,
            );
        }
        block.m = m;
        let s = block.y.stride;
        block.tails.clear();
        block.tails.resize(s, F::ZERO);
        for i in m..n {
            let (row_re, row_im) = (&block.y.re[i * s..][..s], &block.y.im[i * s..][..s]);
            for ((t, &re), &im) in block.tails.iter_mut().zip(row_re).zip(row_im) {
                *t += re * re + im * im;
            }
        }
    }

    /// Shape `(n, m)` of the most recently factored matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }
}

/// Before sorted step `k`: bring the unplaced column with the least
/// remaining norm to position `k` of `order`. Ties go to the lowest input
/// column (`perm` maps stored columns to input columns), and a NaN norm is
/// ordered as `f64::total_cmp` orders it, so the choice cannot panic.
///
/// Each candidate is keyed by the integer image of `total_cmp` on its
/// norm, packed above its input column, so the scan is one integer
/// compare per candidate with no data-dependent branch.
fn select_pivot<F: Float>(order: &mut [usize], norms: &[F], perm: &[usize], k: usize) {
    let key = |p: usize| {
        let c = order[p];
        let bits = norms[c].to_f64().to_bits() as i64;
        let total = bits ^ (((bits >> 63) as u64) >> 1) as i64;
        (i128::from(total) << 64) | perm[c] as i128
    };
    let (mut best, mut best_key) = (k, key(k));
    for p in k + 1..order.len() {
        let kp = key(p);
        let less = kp < best_key;
        best = if less { p } else { best };
        best_key = if less { kp } else { best_key };
    }
    order.swap(k, best);
}

/// A block of `B` receive vectors of one channel, for
/// [`QrFactors::apply_qty_block`]: split planes, one row per receive
/// antenna and one lane per vector (padded to a whole lane chunk). After
/// the apply, vector `b`'s `ȳ = (Qᴴy_b)[..m]` is read off column `b` and
/// its tail energy from [`QtyBlock::tail`].
#[derive(Clone, Debug, Default)]
pub struct QtyBlock<F> {
    y: Planes<F>,
    /// Receive antennas `n`, vectors `B`, and `m`, the rows of `ȳ`, once
    /// applied.
    n: usize,
    b: usize,
    m: usize,
    tails: Vec<F>,
}

impl<F: Float> QtyBlock<F> {
    /// An empty block; buffers grow to steady state on first use.
    pub fn new() -> Self {
        QtyBlock {
            y: Planes::default(),
            n: 0,
            b: 0,
            m: 0,
            tails: Vec::new(),
        }
    }

    /// Start a block of `b` all-zero receive vectors of length `n`. A lone
    /// vector is one lane wide; a block is padded to whole lane chunks.
    pub fn reset(&mut self, n: usize, b: usize) {
        let stride = if b == 1 { 1 } else { b.div_ceil(LANES) * LANES };
        self.y.zeroed(n, stride);
        self.n = n;
        self.b = b;
        self.m = 0;
    }

    /// Set entry `i` of receive vector `col`.
    pub fn set(&mut self, i: usize, col: usize, x: Complex<F>) {
        assert!(col < self.b, "vector {col} out of range ({})", self.b);
        self.y.set(i, col, x);
    }

    /// Number of receive vectors `B`.
    pub fn len(&self) -> usize {
        self.b
    }

    /// Whether the block holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.b == 0
    }

    /// Entry `i < m` of vector `col`'s `ȳ`, after the apply.
    pub fn ybar(&self, i: usize, col: usize) -> Complex<F> {
        debug_assert!(i < self.m && col < self.b);
        self.y.get(i, col)
    }

    /// Vector `col`'s `ȳ = (Qᴴy)[..m]` into `out`, after the apply.
    pub fn ybar_into(&self, col: usize, out: &mut CVector<F>) {
        out.clear();
        out.extend((0..self.m).map(|i| self.ybar(i, col)));
    }

    /// Vector `col`'s tail energy `‖(Qᴴy)[m..]‖²`, after the apply.
    pub fn tail(&self, col: usize) -> F {
        assert!(col < self.b, "vector {col} out of range ({})", self.b);
        self.tails[col]
    }
}

/// Thin QR via modified Gram–Schmidt: returns (`Q` `n×m` with orthonormal
/// columns, `R` `m×m` upper triangular). Less robust than Householder for
/// ill-conditioned inputs; kept as an independent oracle for tests.
pub fn qr_mgs<F: Float>(a: &Matrix<F>) -> (Matrix<F>, Matrix<F>) {
    let (n, m) = a.shape();
    assert!(n >= m, "QR requires rows >= cols");
    let mut q = a.clone();
    let mut r = Matrix::zeros(m, m);
    for j in 0..m {
        let qj: CVector<F> = q.col(j);
        let njj = crate::vector::norm(&qj);
        r[(j, j)] = Complex::from_real(njj);
        if njj > F::ZERO {
            for i in 0..n {
                q[(i, j)] = q[(i, j)].scale(F::ONE / njj);
            }
        }
        let qj: CVector<F> = q.col(j);
        for k in j + 1..m {
            let qk: CVector<F> = q.col(k);
            let proj = crate::vector::dotc(&qj, &qk);
            r[(j, k)] = proj;
            for i in 0..n {
                let delta = proj * qj[i];
                q[(i, k)] -= delta;
            }
        }
    }
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, GemmAlgo};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type M = Matrix<f64>;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> M {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    fn assert_upper_triangular(r: &M, tol: f64) {
        for i in 0..r.rows() {
            for j in 0..r.cols().min(i) {
                assert!(
                    r[(i, j)].abs() <= tol,
                    "R[{i},{j}] = {:?} not ~0",
                    r[(i, j)]
                );
            }
        }
    }

    #[test]
    fn qr_reconstructs_input() {
        for &(n, m, seed) in &[(4, 4, 1), (8, 4, 2), (10, 10, 3), (20, 20, 4), (3, 1, 5)] {
            let a = random_matrix(n, m, seed);
            let QrDecomposition { q, r } = qr(&a);
            let qr_prod = gemm(&q, &r, GemmAlgo::Naive);
            assert!(
                qr_prod.approx_eq(&a, 1e-10),
                "QR != A for {n}x{m} (diff {})",
                qr_prod.max_abs_diff(&a)
            );
            assert_upper_triangular(&r, 1e-12);
        }
    }

    #[test]
    fn q_is_unitary() {
        for &(n, m, seed) in &[(6, 3, 10), (12, 12, 11), (16, 8, 12)] {
            let a = random_matrix(n, m, seed);
            let QrDecomposition { q, .. } = qr(&a);
            let qhq = gemm(&q.hermitian(), &q, GemmAlgo::Naive);
            assert!(
                qhq.approx_eq(&M::identity(n), 1e-10),
                "Q^H Q != I for {n}x{m}"
            );
        }
    }

    #[test]
    fn qr_with_qty_preserves_metric() {
        // ‖y - Hs‖² must equal ‖ȳ - Rs‖² + tail for any s (Eq. 4).
        let mut rng = StdRng::seed_from_u64(42);
        let n = 8;
        let m = 5;
        let h = random_matrix(n, m, 77);
        let y: Vec<_> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let (r, ybar, tail) = qr_with_qty(&h, &y);
        assert_eq!(r.shape(), (m, m));
        assert_eq!(ybar.len(), m);
        for trial in 0..20 {
            let s: Vec<_> = (0..m)
                .map(|i| {
                    Complex::new(
                        ((trial + i) % 3) as f64 - 1.0,
                        ((trial * 7 + i) % 3) as f64 - 1.0,
                    )
                })
                .collect();
            let hs = h.mul_vec(&s);
            let direct = crate::vector::dist_sqr(&y, &hs);
            let rs = r.mul_vec(&s);
            let reduced = crate::vector::dist_sqr(&ybar, &rs) + tail;
            assert!(
                (direct - reduced).abs() < 1e-9,
                "metric mismatch: {direct} vs {reduced}"
            );
        }
    }

    #[test]
    fn mgs_matches_householder_r_up_to_phase() {
        // Both produce valid QRs; R diagonals may differ by a unit phase.
        // Compare |R| entry-wise.
        let a = random_matrix(10, 6, 99);
        let QrDecomposition { r: r_hh, .. } = qr(&a);
        let (_, r_mgs) = qr_mgs(&a);
        for i in 0..6 {
            for j in i..6 {
                assert!(
                    (r_hh[(i, j)].abs() - r_mgs[(i, j)].abs()).abs() < 1e-9,
                    "|R| mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn mgs_q_orthonormal() {
        let a = random_matrix(9, 5, 123);
        let (q, r) = qr_mgs(&a);
        let qhq = gemm(&q.hermitian(), &q, GemmAlgo::Naive);
        assert!(qhq.approx_eq(&M::identity(5), 1e-10));
        let qr_prod = gemm(&q, &r, GemmAlgo::Naive);
        assert!(qr_prod.approx_eq(&a, 1e-10));
    }

    #[test]
    fn rank_deficient_column_handled() {
        // Second column is a multiple of the first: MGS would produce a zero
        // pivot; Householder must not produce NaNs.
        let mut a = random_matrix(6, 3, 5);
        for i in 0..6 {
            a[(i, 1)] = a[(i, 0)].scale(2.0);
        }
        let QrDecomposition { q, r } = qr(&a);
        assert!(q.is_finite() && r.is_finite());
        let qr_prod = gemm(&q, &r, GemmAlgo::Naive);
        assert!(qr_prod.approx_eq(&a, 1e-9));
        // R[1,1] must be (numerically) zero.
        assert!(r[(1, 1)].abs() < 1e-10);
    }

    #[test]
    fn f32_qr_is_accurate_enough() {
        let a64 = random_matrix(10, 10, 321);
        let a32: Matrix<f32> = a64.cast();
        let QrDecomposition { q, r } = qr(&a32);
        let qr_prod = gemm(&q, &r, GemmAlgo::Naive);
        assert!(qr_prod.approx_eq(&a32, 1e-4));
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn wide_matrix_rejected() {
        qr(&M::zeros(2, 5));
    }

    #[test]
    fn factor_apply_split_is_bit_identical_to_fused() {
        // The cacheable split: factor H once, replay Q^H onto many y's.
        // Every replay must match the fused path bit-for-bit.
        let mut rng = StdRng::seed_from_u64(0xFAC7);
        for &(n, m, seed) in &[(8, 5, 11u64), (6, 6, 12), (12, 12, 13)] {
            let h = random_matrix(n, m, seed);
            let mut factors: QrFactors<f64> = QrFactors::new();
            let mut r_split = M::zeros(0, 0);
            factors.factor(&h, &mut r_split);
            assert_eq!(factors.shape(), (n, m));
            for _ in 0..4 {
                let y: Vec<_> = (0..n)
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                let (r_fused, ybar_fused, tail_fused) = qr_with_qty(&h, &y);
                let mut ybar_split = Vec::new();
                let tail_split = factors.apply_qty_into(&y, &mut ybar_split);
                assert_eq!(r_fused, r_split, "{n}x{m}: R differs");
                assert_eq!(ybar_fused, ybar_split, "{n}x{m}: ybar differs");
                assert_eq!(tail_fused.to_bits(), tail_split.to_bits());
            }
        }
    }

    #[test]
    fn reused_factors_are_bit_identical_to_fresh() {
        // One QrFactors reused across shrinking and regrowing shapes, as
        // the preparation scratch, the channel prep and the prep cache
        // reuse theirs: every factor + apply must match a fresh
        // qr_with_qty, and every sorted factor + apply a fresh
        // qr_with_qty of the permuted channel, bit for bit.
        let mut factors: QrFactors<f64> = QrFactors::new();
        let (mut r_out, mut ybar_out, mut perm) = (M::zeros(0, 0), Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(0xABCD);
        for &(n, m, seed) in &[(8, 5, 1u64), (4, 4, 2), (10, 10, 3), (6, 3, 4), (10, 10, 5)] {
            let h = random_matrix(n, m, seed);
            let y: Vec<_> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            factors.factor(&h, &mut r_out);
            let tail_out = factors.apply_qty_into(&y, &mut ybar_out);
            let (r, ybar, tail) = qr_with_qty(&h, &y);
            assert_eq!(r, r_out, "{n}x{m}: R differs");
            assert_eq!(ybar, ybar_out, "{n}x{m}: ybar differs");
            assert_eq!(tail.to_bits(), tail_out.to_bits(), "{n}x{m}: tail differs");

            factors.factor_sorted(&h, &mut r_out, &mut perm);
            let tail_out = factors.apply_qty_into(&y, &mut ybar_out);
            let (mut r_fresh, mut perm_fresh) = (M::zeros(0, 0), Vec::new());
            QrFactors::new().factor_sorted(&h, &mut r_fresh, &mut perm_fresh);
            assert_eq!(perm, perm_fresh, "{n}x{m} sorted: perm differs");
            let h_perm = Matrix::from_fn(n, m, |i, j| h[(i, perm[j])]);
            let (r, ybar, tail) = qr_with_qty(&h_perm, &y);
            assert_eq!(r, r_out, "{n}x{m} sorted: R differs");
            assert_eq!(ybar, ybar_out, "{n}x{m} sorted: ybar differs");
            assert_eq!(tail.to_bits(), tail_out.to_bits(), "{n}x{m} sorted: tail");
        }
    }

    #[test]
    fn block_apply_is_bit_identical_to_per_vector() {
        // The frame-serving batched apply: one reflector sweep over an
        // n×B block must reproduce B standalone vector applies exactly.
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for &(n, m, bcols, seed) in &[
            (8, 5, 7usize, 21u64),
            (6, 6, 1, 22),
            (12, 12, 16, 23),
            (9, 4, 1, 24),
        ] {
            let h = random_matrix(n, m, seed);
            let mut factors: QrFactors<f64> = QrFactors::new();
            let mut r = M::zeros(0, 0);
            factors.factor(&h, &mut r);
            let ys = Matrix::from_fn(n, bcols, |_, _| {
                Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            let mut ybars = M::zeros(0, 0);
            let mut tails = Vec::new();
            factors.apply_qty_block_into(&ys, &mut ybars, &mut tails);
            assert_eq!(ybars.shape(), (m, bcols));
            assert_eq!(tails.len(), bcols);
            for b in 0..bcols {
                let y: Vec<_> = (0..n).map(|i| ys[(i, b)]).collect();
                let mut ybar_one = Vec::new();
                let tail_one = factors.apply_qty_into(&y, &mut ybar_one);
                for i in 0..m {
                    assert_eq!(
                        ybars[(i, b)],
                        ybar_one[i],
                        "{n}x{m} col {b}: ybar[{i}] differs"
                    );
                }
                assert_eq!(
                    tails[b].to_bits(),
                    tail_one.to_bits(),
                    "{n}x{m} col {b}: tail differs"
                );
            }
        }
    }

    /// The channels the sorted QR is checked on: the served shapes, 8×8
    /// and 16 streams on 18 antennas.
    fn sorted_qr_channels() -> impl Iterator<Item = M> {
        (0..40u64).flat_map(|seed| {
            [
                random_matrix(8, 8, 0x5027 + seed),
                random_matrix(18, 16, 0x1618 + seed),
            ]
        })
    }

    /// `m × m` upper factor with its permutation, from a sorted QR.
    fn sorted_factor<F: Float>(h: &Matrix<F>) -> (Matrix<F>, Vec<usize>) {
        let mut r = Matrix::zeros(0, 0);
        let mut perm = Vec::new();
        QrFactors::new().factor_sorted(h, &mut r, &mut perm);
        (r, perm)
    }

    fn is_permutation(perm: &[usize], m: usize) -> bool {
        let mut seen = perm.to_vec();
        seen.sort_unstable();
        seen == (0..m).collect::<Vec<_>>()
    }

    /// The SQRD rule read back from `R`: step `k` took the remaining
    /// column with the least remaining norm, and column `j`'s remaining
    /// norm at step `k` is `Σ_{i=k..j} |r_ij|²`, so `|r_kk|²` is at most
    /// that for every later `j` (up to the rounding of the downdates).
    #[test]
    fn sorted_qr_obeys_the_sqrd_rule() {
        for h in sorted_qr_channels() {
            let (r, perm) = sorted_factor(&h);
            let m = h.cols();
            assert!(is_permutation(&perm, m), "{perm:?}");
            for k in 0..m {
                let rkk = r[(k, k)].norm_sqr();
                for j in k + 1..m {
                    let remaining: f64 = (k..=j).map(|i| r[(i, j)].norm_sqr()).sum();
                    assert!(
                        rkk <= remaining + 1e-12 * (1.0 + remaining),
                        "{}x{m} step {k}: |r_kk|² {rkk} > column {j}'s {remaining}",
                        h.rows()
                    );
                }
            }
        }
    }

    /// Pivoting inside the sweep is the unpivoted factorization of the
    /// permuted channel, bit for bit: `R`, `Qᴴy` and the tail.
    #[test]
    fn sorted_qr_is_the_qr_of_the_permuted_channel() {
        let mut rng = StdRng::seed_from_u64(0x50B7);
        let mut sorted: QrFactors<f64> = QrFactors::new();
        let mut plain: QrFactors<f64> = QrFactors::new();
        let (mut r_sorted, mut r_plain, mut perm) = (M::zeros(0, 0), M::zeros(0, 0), Vec::new());
        let (mut ybar_sorted, mut ybar_plain) = (Vec::new(), Vec::new());
        for h in sorted_qr_channels() {
            let (n, m) = h.shape();
            sorted.factor_sorted(&h, &mut r_sorted, &mut perm);
            let h_perm = Matrix::from_fn(n, m, |i, j| h[(i, perm[j])]);
            plain.factor(&h_perm, &mut r_plain);
            assert_eq!(r_sorted, r_plain, "{n}x{m}: R differs");
            let y: Vec<_> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let tail_sorted = sorted.apply_qty_into(&y, &mut ybar_sorted);
            let tail_plain = plain.apply_qty_into(&y, &mut ybar_plain);
            assert_eq!(ybar_sorted, ybar_plain, "{n}x{m}: Qᴴy differs");
            assert_eq!(tail_sorted.to_bits(), tail_plain.to_bits(), "{n}x{m}: tail");
        }
    }

    /// Degenerate channels factor without a panic and still yield a
    /// permutation; exact norm ties go to the lowest column.
    #[test]
    fn sorted_qr_is_total_on_degenerate_channels() {
        let base = random_matrix(8, 6, 0xDE6);
        let with_col = |j: usize, v: Complex<f64>| {
            let mut h = base.clone();
            for i in 0..h.rows() {
                h[(i, j)] = v;
            }
            h
        };
        let mut duplicated = base.clone();
        for i in 0..8 {
            duplicated[(i, 4)] = base[(i, 1)].scale(1e-3);
            duplicated[(i, 2)] = base[(i, 1)].scale(1e-3);
        }
        let mut nan = base.clone();
        nan[(3, 2)] = Complex::new(f64::NAN, 0.0);
        let mut inf = base.clone();
        inf[(5, 0)] = Complex::new(f64::INFINITY, -1.0);
        let cases = [
            ("all-zero", M::zeros(8, 6)),
            ("zero column", with_col(3, Complex::zero())),
            ("duplicated column", duplicated),
            ("NaN", nan),
            ("infinity", inf),
            ("NaN column", with_col(1, Complex::new(f64::NAN, f64::NAN))),
        ];
        for (label, h) in &cases {
            let (_, perm) = sorted_factor(h);
            assert!(is_permutation(&perm, 6), "{label}: {perm:?}");
        }
        // All norms tie at every step: the order stays the input order.
        assert_eq!(sorted_factor(&M::zeros(8, 6)).1, [0, 1, 2, 3, 4, 5]);
        assert_eq!(sorted_factor(&M::identity(6)).1, [0, 1, 2, 3, 4, 5]);
        // A zero column has the least norm; equal weak columns go lowest
        // first.
        assert_eq!(sorted_factor(&cases[1].1).1[0], 3);
        assert_eq!(sorted_factor(&cases[2].1).1[0], 2);
        // f32 input runs the same rule in its own precision.
        let h32: Matrix<f32> = base.cast();
        let (r32, perm32) = sorted_factor(&h32);
        assert!(is_permutation(&perm32, 6), "{perm32:?}");
        assert!(r32.is_finite());
        assert_eq!(
            sorted_factor(&Matrix::<f32>::zeros(8, 6)).1,
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(sorted_factor(&M::zeros(3, 0)).1, Vec::<usize>::new());
    }

    /// The shapes the kernel is pinned on: every `n × m` with
    /// `1 ≤ m ≤ n`, from 1×1 to 18×16, and the tall 64×8.
    fn oracle_shapes() -> impl Iterator<Item = (usize, usize)> {
        (1..=18usize)
            .flat_map(|n| (1..=n.min(16)).map(move |m| (n, m)))
            .chain([(64, 8)])
    }

    /// Channel families the kernel must reproduce the oracle on.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Random,
        AllZero,
        ZeroColumn,
        DuplicateColumn,
        /// Unit-modulus entries: every column norm ties at the start.
        TiedNorms,
        Subnormal,
        Huge,
        Nan,
        Infinity,
    }

    const KINDS: [Kind; 9] = [
        Kind::Random,
        Kind::AllZero,
        Kind::ZeroColumn,
        Kind::DuplicateColumn,
        Kind::TiedNorms,
        Kind::Subnormal,
        Kind::Huge,
        Kind::Nan,
        Kind::Infinity,
    ];

    /// An `n × m` channel of `kind` in precision `F`; `tiny` and `huge`
    /// are the subnormal and large scales of that precision.
    fn oracle_channel<F: Float>(
        kind: Kind,
        n: usize,
        m: usize,
        rng: &mut StdRng,
        (tiny, huge): (f64, f64),
    ) -> Matrix<F> {
        let (i, j, j2) = (
            rng.gen_range(0..n),
            rng.gen_range(0..m),
            rng.gen_range(0..m),
        );
        let mut unit = |scale: f64| {
            let (re, im): (f64, f64) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
            Complex::new(F::from_f64(re * scale), F::from_f64(im * scale))
        };
        let mut h = Matrix::from_fn(n, m, |_, _| unit(1.0));
        match kind {
            Kind::Random => {}
            Kind::AllZero => h = Matrix::zeros(n, m),
            Kind::ZeroColumn => (0..n).for_each(|r| h[(r, j)] = Complex::zero()),
            Kind::DuplicateColumn => (0..n).for_each(|r| h[(r, j2)] = h[(r, j)]),
            Kind::TiedNorms => {
                // The sign pattern of the random draw picks each unit.
                h = h.map(|x| match (x.re >= F::ZERO, x.im >= F::ZERO) {
                    (true, true) => Complex::one(),
                    (false, true) => Complex::new(F::ZERO, F::ONE),
                    (true, false) => Complex::new(F::ZERO, -F::ONE),
                    (false, false) => -Complex::one(),
                });
            }
            Kind::Subnormal => h = Matrix::from_fn(n, m, |_, _| unit(tiny)),
            Kind::Huge => h = Matrix::from_fn(n, m, |_, _| unit(huge)),
            Kind::Nan => h[(i, j)].re = F::from_f64(f64::NAN),
            Kind::Infinity => h[(i, j)].im = F::from_f64(f64::NEG_INFINITY),
        }
        h
    }

    /// Equal bit for bit, except that a NaN only has to meet a NaN:
    /// scalar and packed fused multiply-adds may pick different NaN
    /// payloads.
    fn same_bits<F: Float>(got: &[Complex<F>], want: &[Complex<F>]) -> bool {
        let bits = |x: F| x.to_f64().to_bits();
        let part = |g: F, w: F| {
            if w.to_f64().is_nan() {
                g.to_f64().is_nan()
            } else {
                bits(g) == bits(w)
            }
        };
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| part(g.re, w.re) && part(g.im, w.im))
    }

    /// Pin one channel's factorization and applies to the scalar oracle:
    /// `R`, the permutation, `Qᴴy` and the tail of a vector, and — when
    /// `blocks` — every vector of blocks of `B ∈ {1, 2, 3, 9, 16, 64}`
    /// against the oracle's per-vector apply.
    fn check_against_oracle<F: Float>(
        h: &Matrix<F>,
        sorted: bool,
        blocks: bool,
        rng: &mut StdRng,
    ) -> Result<(), String> {
        let (n, m) = h.shape();
        let label = format!("{n}x{m} sorted={sorted} {}", std::any::type_name::<F>());
        let want = oracle::Oracle::factor(h, sorted);
        let (mut factors, mut r, mut perm) = (QrFactors::new(), Matrix::zeros(0, 0), Vec::new());
        if sorted {
            factors.factor_sorted(h, &mut r, &mut perm);
        } else {
            factors.factor(h, &mut r);
            perm.extend(0..m);
        }
        if perm != want.perm {
            return Err(format!("{label}: perm {perm:?} != {:?}", want.perm));
        }
        if !same_bits(r.as_slice(), want.r().as_slice()) {
            return Err(format!("{label}: R differs"));
        }
        let mut random_y = |len: usize| -> Vec<Complex<F>> {
            (0..len)
                .map(|_| Complex::from_f64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect()
        };
        let y = random_y(n);
        let (ybar_want, tail_want) = want.apply_qty(&y);
        let mut ybar = Vec::new();
        let tail = factors.apply_qty_into(&y, &mut ybar);
        if !same_bits(&ybar, &ybar_want)
            || !same_bits(
                &[Complex::from_real(tail)],
                &[Complex::from_real(tail_want)],
            )
        {
            return Err(format!("{label}: Qᴴy or tail differs"));
        }
        if blocks {
            let mut block = QtyBlock::new();
            for b in [1usize, 2, 3, 9, 16, 64] {
                let ys: Vec<Vec<Complex<F>>> = (0..b).map(|_| random_y(n)).collect();
                block.reset(n, b);
                for (col, y) in ys.iter().enumerate() {
                    for (i, &x) in y.iter().enumerate() {
                        block.set(i, col, x);
                    }
                }
                factors.apply_qty_block(&mut block);
                // The oracle's block sweep must agree with its own
                // per-vector apply, and the kernel with both.
                let swept = want.apply_qty_block(&Matrix::from_fn(n, b, |i, col| ys[col][i]));
                for (col, y) in ys.iter().enumerate() {
                    let (ybar_want, tail_want) = want.apply_qty(y);
                    let ybar_swept: Vec<_> = (0..m).map(|i| swept[(i, col)]).collect();
                    block.ybar_into(col, &mut ybar);
                    let tail = block.tail(col);
                    if !same_bits(&ybar, &ybar_want)
                        || !same_bits(&ybar_swept, &ybar_want)
                        || !same_bits(
                            &[Complex::from_real(tail)],
                            &[Complex::from_real(tail_want)],
                        )
                    {
                        return Err(format!("{label}: block B={b} vector {col} differs"));
                    }
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The lane kernel against today's scalar sweep, bit for bit, on
        /// every shape from 1×1 to 18×16 plus 64×8, in both precisions and
        /// both column orders. The block apply is pinned on the served
        /// shapes and on one more shape per case.
        #[test]
        fn kernel_is_bit_identical_to_the_scalar_oracle(
            kind in 0..KINDS.len(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let kind = KINDS[kind];
            let mut rng = StdRng::seed_from_u64(seed);
            let extra = oracle_shapes().nth(rng.gen_range(0..oracle_shapes().count()));
            for (n, m) in oracle_shapes() {
                let blocks = matches!((n, m), (8, 8) | (18, 16) | (64, 8)) || Some((n, m)) == extra;
                for sorted in [false, true] {
                    let h64: Matrix<f64> = oracle_channel(kind, n, m, &mut rng, (1e-310, 1e150));
                    let r64 = check_against_oracle(&h64, sorted, blocks, &mut rng);
                    proptest::prop_assert!(r64.is_ok(), "{kind:?}: {}", r64.unwrap_err());
                    let h32: Matrix<f32> = oracle_channel(kind, n, m, &mut rng, (1e-41, 1e18));
                    let r32 = check_against_oracle(&h32, sorted, blocks, &mut rng);
                    proptest::prop_assert!(r32.is_ok(), "{kind:?}: {}", r32.unwrap_err());
                }
            }
        }
    }
}
