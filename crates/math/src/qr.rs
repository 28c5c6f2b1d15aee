//! Complex QR decomposition.
//!
//! Eq. (4) of the paper rewrites the ML metric `‖y − Hs‖²` as
//! `‖ȳ − Rs‖²` with `H = QR` and `ȳ = Q^H y`, which makes the metric
//! separable level-by-level (Eq. (5)/(6)) — the property the search tree is
//! built on. This module implements Householder QR (numerically robust
//! default), its sorted twin that pivots the columns inside the same sweep
//! ([`QrFactors::factor_sorted`], Wübben et al.'s SQRD), plus a modified
//! Gram–Schmidt variant used as a cross-check in tests.

use crate::complex::Complex;
use crate::float::Float;
use crate::matrix::Matrix;
use crate::vector::CVector;

/// Full QR decomposition `A = Q R` of an `n × m` matrix (`n ≥ m`):
/// `Q` is `n × n` unitary, `R` is `n × m` upper triangular.
#[derive(Clone, Debug)]
pub struct QrDecomposition<F: Float> {
    /// Unitary factor.
    pub q: Matrix<F>,
    /// Upper-triangular factor (same shape as the input).
    pub r: Matrix<F>,
}

/// Householder reflectors of one decomposition, stored compactly so they
/// can be applied to vectors without materializing `Q`.
struct Reflectors<F> {
    /// Householder vectors; `v[k]` has length `n - k`.
    vs: Vec<CVector<F>>,
    /// Real scaling factors `tau_k = 2 / (v^H v)`.
    taus: Vec<F>,
    n: usize,
}

/// Apply `H_k … H_0` (i.e. `Q^H`) to `x` in place.
fn apply_qh_slices<F: Float>(vs: &[CVector<F>], taus: &[F], x: &mut [Complex<F>]) {
    for (k, (v, &tau)) in vs.iter().zip(taus.iter()).enumerate() {
        if tau == F::ZERO {
            continue;
        }
        // w = v^H x[k..]
        let mut w = Complex::zero();
        for (vi, xi) in v.iter().zip(x[k..].iter()) {
            Complex::mul_acc(&mut w, vi.conj(), *xi);
        }
        let w = w.scale(tau);
        // x[k..] -= w * v
        for (vi, xi) in v.iter().zip(x[k..].iter_mut()) {
            *xi -= w * *vi;
        }
    }
}

impl<F: Float> Reflectors<F> {
    /// Apply `H_k … H_0` (i.e. `Q^H`) to `x` in place.
    fn apply_qh(&self, x: &mut [Complex<F>]) {
        assert_eq!(x.len(), self.n);
        apply_qh_slices(&self.vs, &self.taus, x);
    }

    /// Apply `H_0 … H_k` (i.e. `Q`) to `x` in place.
    fn apply_q(&self, x: &mut [Complex<F>]) {
        assert_eq!(x.len(), self.n);
        for (k, (v, &tau)) in self.vs.iter().zip(self.taus.iter()).enumerate().rev() {
            if tau == F::ZERO {
                continue;
            }
            let mut w = Complex::zero();
            for (vi, xi) in v.iter().zip(x[k..].iter()) {
                Complex::mul_acc(&mut w, vi.conj(), *xi);
            }
            let w = w.scale(tau);
            for (vi, xi) in v.iter().zip(x[k..].iter_mut()) {
                *xi -= w * *vi;
            }
        }
    }
}

/// Column state of a sorted QR (Wübben et al.'s SQRD) while its
/// Householder sweep runs: the permutation so far (`perm[k]` is the input
/// column now stored at position `k`) and every column's remaining squared
/// norm, the energy of its rows not yet reduced.
struct SortedPivot<'a, F> {
    perm: &'a mut Vec<usize>,
    norms: &'a mut Vec<F>,
}

impl<F: Float> SortedPivot<'_, F> {
    /// Identity permutation and the full squared column norms of `a`:
    /// one O(n·m) pass.
    fn start(&mut self, a: &Matrix<F>) {
        let m = a.cols();
        self.perm.clear();
        self.perm.extend(0..m);
        self.norms.clear();
        self.norms.resize(m, F::ZERO);
        for r in 0..a.rows() {
            for (nj, x) in self.norms.iter_mut().zip(a.row(r)) {
                *nj += x.norm_sqr();
            }
        }
    }

    /// Before step `k`: swap the remaining column with the least remaining
    /// norm into position `k`, whole (rows above `k` too, so the finished
    /// part of `R` moves with it). Ties go to the lowest input column, and
    /// `total_cmp` orders a NaN norm, so the choice cannot panic.
    fn select(&mut self, a: &mut Matrix<F>, k: usize) {
        let m = a.cols();
        let (norms, perm) = (&*self.norms, &*self.perm);
        let best = (k..m)
            .min_by(|&i, &j| {
                norms[i]
                    .to_f64()
                    .total_cmp(&norms[j].to_f64())
                    .then(perm[i].cmp(&perm[j]))
            })
            .unwrap_or(k);
        if best != k {
            for row in a.as_mut_slice().chunks_exact_mut(m) {
                row.swap(k, best);
            }
            self.norms.swap(k, best);
            self.perm.swap(k, best);
        }
    }

    /// After step `k`: row `k` of `R` is final, so each later column's
    /// remaining norm loses `|r_kj|²`. O(m) per step.
    fn downdate(&mut self, a: &Matrix<F>, k: usize) {
        for (nj, r_kj) in self.norms[k + 1..].iter_mut().zip(&a.row(k)[k + 1..]) {
            *nj -= r_kj.norm_sqr();
        }
    }
}

/// Factorize in place, writing the reflectors into `vs`/`taus` (whose
/// element buffers are reused across calls, so steady-state callers never
/// touch the allocator) and leaving `R` in `a`. With `pivot`, the sweep
/// pivots its columns as a sorted QR and leaves the permutation in it.
///
/// A pivot only moves whole columns between steps, and each column meets
/// the same reflectors wherever it is stored, so a pivoted factorization
/// is bit-identical to the unpivoted one of the input with its columns
/// permuted up front.
fn householder_into<F: Float>(
    a: &mut Matrix<F>,
    vs: &mut Vec<CVector<F>>,
    taus: &mut Vec<F>,
    mut pivot: Option<SortedPivot<'_, F>>,
) {
    let (n, m) = a.shape();
    assert!(n >= m, "QR requires rows >= cols (got {n}x{m})");
    let steps = m.min(n.saturating_sub(1));
    if vs.len() < steps {
        vs.resize_with(steps, Vec::new);
    }
    vs.truncate(steps);
    taus.clear();
    if let Some(p) = pivot.as_mut() {
        p.start(a);
    }

    for (k, x) in vs.iter_mut().enumerate() {
        if let Some(p) = pivot.as_mut() {
            p.select(a, k);
        }
        taus.push(reflect_column(a, k, x));
        if let Some(p) = pivot.as_mut() {
            p.downdate(a, k);
        }
    }
}

/// Householder step `k`: reduce column `k` of `a` below the diagonal,
/// writing the reflector into `x` and returning its `tau` (zero when the
/// column tail is already negligible and the step is skipped).
fn reflect_column<F: Float>(a: &mut Matrix<F>, k: usize, x: &mut CVector<F>) -> F {
    let (n, m) = a.shape();
    // Column tail x = A[k.., k].
    x.clear();
    x.extend((k..n).map(|r| a[(r, k)]));
    let norm_x = crate::vector::norm(x);
    if norm_x <= F::epsilon() {
        return F::ZERO;
    }
    let alpha = x[0];
    let alpha_abs = alpha.abs();
    // beta = -(alpha/|alpha|)·‖x‖, or -‖x‖ when alpha == 0.
    let beta = if alpha_abs > F::ZERO {
        alpha.scale(-norm_x / alpha_abs)
    } else {
        Complex::from_real(-norm_x)
    };
    // v = x - beta·e1; v^H v = 2(‖x‖² + |x₀|·‖x‖) so tau = 2/(v^H v).
    x[0] = alpha - beta;
    let vhv = norm_x * norm_x + alpha_abs * norm_x;
    let tau = if vhv > F::ZERO { F::ONE / vhv } else { F::ZERO };

    // Apply the reflector to the trailing columns k..m of A.
    for c in k..m {
        let mut w = Complex::zero();
        for (i, vi) in x.iter().enumerate() {
            Complex::mul_acc(&mut w, vi.conj(), a[(k + i, c)]);
        }
        let w = w.scale(tau);
        for (i, vi) in x.iter().enumerate() {
            let delta = w * *vi;
            a[(k + i, c)] -= delta;
        }
    }
    // Column k is now beta·e1 exactly (clean up rounding below the
    // diagonal).
    a[(k, k)] = beta;
    for r in k + 1..n {
        a[(r, k)] = Complex::zero();
    }
    tau
}

/// Factorize in place, returning the reflectors and leaving `R` in `a`.
fn householder<F: Float>(a: &mut Matrix<F>) -> Reflectors<F> {
    let n = a.rows();
    let mut vs = Vec::new();
    let mut taus = Vec::new();
    householder_into(a, &mut vs, &mut taus, None);
    Reflectors { vs, taus, n }
}

/// Full Householder QR: `a = Q R`.
pub fn qr<F: Float>(a: &Matrix<F>) -> QrDecomposition<F> {
    let mut r = a.clone();
    let refl = householder(&mut r);
    let n = a.rows();
    // Q = H_0 … H_{m-1}: apply Q to each identity column.
    let mut q = Matrix::zeros(n, n);
    for c in 0..n {
        let mut e = vec![Complex::zero(); n];
        e[c] = Complex::one();
        refl.apply_q(&mut e);
        for (r_i, val) in e.into_iter().enumerate() {
            q[(r_i, c)] = val;
        }
    }
    QrDecomposition { q, r }
}

/// Decoder-oriented QR: factorizes `h` and simultaneously computes
/// `ȳ = Q^H y`, returning the thin `m × m` upper-triangular `R` and the
/// first `m` entries of `ȳ` (the only parts the tree search uses), plus the
/// residual energy `‖ȳ[m..]‖²` that is constant over all hypotheses.
pub fn qr_with_qty<F: Float>(h: &Matrix<F>, y: &[Complex<F>]) -> (Matrix<F>, CVector<F>, F) {
    let (n, m) = h.shape();
    assert_eq!(y.len(), n, "y length must equal rows of H");
    let mut r_full = h.clone();
    let refl = householder(&mut r_full);
    let mut ybar = y.to_vec();
    refl.apply_qh(&mut ybar);
    let r_thin = r_full.block(0, m, 0, m);
    let tail_energy = crate::vector::norm_sqr(&ybar[m..]);
    ybar.truncate(m);
    (r_thin, ybar, tail_energy)
}

/// The channel-dependent half of a decoder QR, split from the
/// receive-vector half so it can be cached and reused across frames that
/// share one `H` (channel-coherent serving): [`QrFactors::factor`] (or
/// its column-pivoting twin [`QrFactors::factor_sorted`]) runs the
/// Householder factorization (everything that touches only `H`), and
/// [`QrFactors::apply_qty_into`] replays the stored reflectors onto a
/// fresh `y`. Composing the two is bit-identical to [`qr_with_qty`] by
/// construction — the factorization never reads `y`, and the reflector
/// application is the identical `apply_qh` loop.
///
/// All buffers are reused across calls, so both halves are
/// allocation-free once a problem shape has been seen.
pub struct QrFactors<F: Float> {
    /// Factored work matrix: full-size `R` after [`QrFactors::factor`].
    r_full: Matrix<F>,
    vs: Vec<CVector<F>>,
    taus: Vec<F>,
    /// Work buffer for the full-length `Q^H y` product.
    ybar: CVector<F>,
    /// Work matrix for the block apply: `Q^H Y` over all columns at once.
    yblock: Matrix<F>,
    /// Per-column reflector coefficients `w_b = τ·(v^H Y[k.., b])`.
    wrow: CVector<F>,
    /// Remaining squared column norms of a sorted factorization.
    norms: Vec<F>,
}

impl<F: Float> Default for QrFactors<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cloning copies the factorization (the reflectors and the factored work
/// matrix), not the apply work buffers. `clone_from` reuses the
/// destination's buffers, so copying a factorization over one of the same
/// shape is allocation-free.
impl<F: Float> Clone for QrFactors<F> {
    fn clone(&self) -> Self {
        let mut c = Self::new();
        c.clone_from(self);
        c
    }

    fn clone_from(&mut self, src: &Self) {
        let (n, m) = src.r_full.shape();
        self.r_full.resize_for_overwrite(n, m);
        self.r_full
            .as_mut_slice()
            .copy_from_slice(src.r_full.as_slice());
        self.vs.clone_from(&src.vs);
        self.taus.clone_from(&src.taus);
    }
}

impl<F: Float> QrFactors<F> {
    /// Empty factors; buffers grow to steady state on first use.
    pub fn new() -> Self {
        QrFactors {
            r_full: Matrix::zeros(0, 0),
            vs: Vec::new(),
            taus: Vec::new(),
            ybar: Vec::new(),
            yblock: Matrix::zeros(0, 0),
            wrow: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Factorize `h`, storing the Householder reflectors in `self` and
    /// writing the thin `m × m` upper-triangular factor into `r_out`.
    pub fn factor(&mut self, h: &Matrix<F>, r_out: &mut Matrix<F>) {
        self.factor_pivoted(h, r_out, None);
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
    /// `perm`. The pivot adds one O(n·m) norm pass, O(m) per step and the
    /// column swaps; it never allocates once the shape has been seen, and
    /// it is total: ties go to the lowest column of `h`, and a NaN norm is
    /// ordered by `total_cmp`.
    pub fn factor_sorted(&mut self, h: &Matrix<F>, r_out: &mut Matrix<F>, perm: &mut Vec<usize>) {
        self.factor_pivoted(h, r_out, Some(perm));
    }

    fn factor_pivoted(
        &mut self,
        h: &Matrix<F>,
        r_out: &mut Matrix<F>,
        perm: Option<&mut Vec<usize>>,
    ) {
        let (n, m) = h.shape();
        self.r_full.resize_for_overwrite(n, m);
        for i in 0..n {
            for j in 0..m {
                self.r_full[(i, j)] = h[(i, j)];
            }
        }
        let pivot = perm.map(|perm| SortedPivot {
            perm,
            norms: &mut self.norms,
        });
        householder_into(&mut self.r_full, &mut self.vs, &mut self.taus, pivot);
        r_out.resize_for_overwrite(m, m);
        for i in 0..m {
            for j in 0..m {
                r_out[(i, j)] = self.r_full[(i, j)];
            }
        }
    }

    /// Apply the stored `Q^H` to `y`, writing the first `m` entries into
    /// `ybar_out` and returning the tail energy `‖(Q^H y)[m..]‖²`. Must
    /// follow a [`QrFactors::factor`] of an `n × m` matrix with
    /// `y.len() == n`.
    pub fn apply_qty_into(&mut self, y: &[Complex<F>], ybar_out: &mut CVector<F>) -> F {
        let (n, m) = self.r_full.shape();
        assert_eq!(y.len(), n, "y length must equal rows of the factored H");
        self.ybar.clear();
        self.ybar.extend_from_slice(y);
        apply_qh_slices(&self.vs, &self.taus, &mut self.ybar);
        let tail_energy = crate::vector::norm_sqr(&self.ybar[m..]);
        ybar_out.clear();
        ybar_out.extend_from_slice(&self.ybar[..m]);
        tail_energy
    }

    /// Batched [`QrFactors::apply_qty_into`]: apply the stored `Q^H` to a
    /// whole block of receive vectors at once. `ys` is `n × B` (one column
    /// per vector); on return `ybars` is `m × B` (column `b` is
    /// `(Q^H y_b)[..m]`) and `tails[b]` is `‖(Q^H y_b)[m..]‖²`.
    ///
    /// This is the frame-serving GEMM apply: one reflector sweep updates
    /// every column, with the inner loop running contiguously across the
    /// block (row-major `ys`), instead of `B` separate vector replays.
    /// Columns are arithmetically independent and each column performs the
    /// exact per-reflector operation sequence of the vector path, so every
    /// column is **bit-identical** to a standalone
    /// [`QrFactors::apply_qty_into`] of that `y`.
    pub fn apply_qty_block_into(
        &mut self,
        ys: &Matrix<F>,
        ybars: &mut Matrix<F>,
        tails: &mut Vec<F>,
    ) {
        let (n, m) = self.r_full.shape();
        assert_eq!(ys.rows(), n, "ys rows must equal rows of the factored H");
        let b = ys.cols();
        self.yblock.resize_for_overwrite(n, b);
        self.yblock.as_mut_slice().copy_from_slice(ys.as_slice());
        if b == 1 {
            // One column is one contiguous vector: run the vector sweep
            // itself, without the per-row block bookkeeping that would
            // cost a single receive vector more than the sweep.
            apply_qh_slices(&self.vs, &self.taus, self.yblock.as_mut_slice());
        } else {
            self.apply_qh_block(b);
        }
        // Row-major: the first m rows of the block are ybars, contiguous.
        ybars.resize_for_overwrite(m, b);
        ybars
            .as_mut_slice()
            .copy_from_slice(&self.yblock.as_slice()[..m * b]);
        tails.clear();
        tails.resize(b, F::ZERO);
        for i in m..n {
            for (t, x) in tails.iter_mut().zip(self.yblock.row(i).iter()) {
                *t += x.norm_sqr();
            }
        }
    }

    /// Apply the stored `Q^H` to the `b` columns of `yblock` in place: one
    /// reflector sweep across the block, each column summing its products
    /// in the same order as `apply_qh_slices`.
    fn apply_qh_block(&mut self, b: usize) {
        for (k, (v, &tau)) in self.vs.iter().zip(self.taus.iter()).enumerate() {
            if tau == F::ZERO {
                continue;
            }
            // w = v^H Y[k..] — accumulated row by row so each column sums
            // its products in the same order as the vector path.
            self.wrow.clear();
            self.wrow.resize(b, Complex::zero());
            for (i, vi) in v.iter().enumerate() {
                let c = vi.conj();
                for (w, x) in self.wrow.iter_mut().zip(self.yblock.row(k + i).iter()) {
                    Complex::mul_acc(w, c, *x);
                }
            }
            for w in self.wrow.iter_mut() {
                *w = w.scale(tau);
            }
            // Y[k..] -= v w (rank-1 update, contiguous across the block).
            for (i, &vi) in v.iter().enumerate() {
                let wrow = &self.wrow;
                for (x, w) in self.yblock.row_mut(k + i).iter_mut().zip(wrow.iter()) {
                    *x -= *w * vi;
                }
            }
        }
    }

    /// Shape `(n, m)` of the most recently factored matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.r_full.shape()
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
}
