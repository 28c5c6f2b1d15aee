//! The scalar Householder sweep the lane kernel replaced, kept as the bit
//! oracle its tests pin the kernel to: one trailing column at a time on
//! interleaved complex numbers, each column summing its reflector products
//! row by row with `Complex::mul_acc`, then subtracting `w·v` row by row.

use crate::complex::Complex;
use crate::float::Float;
use crate::matrix::Matrix;
use crate::vector::CVector;

/// A factorization by the scalar sweep: the full factored work matrix (`R`
/// in its first `m` rows), the reflectors and the detection order.
pub(super) struct Oracle<F: Float> {
    pub r_full: Matrix<F>,
    pub vs: Vec<CVector<F>>,
    pub taus: Vec<F>,
    pub perm: Vec<usize>,
}

impl<F: Float> Oracle<F> {
    /// Factor `h` by the scalar sweep, pivoting as a sorted QR when
    /// `sorted`.
    pub fn factor(h: &Matrix<F>, sorted: bool) -> Self {
        let mut r_full = h.clone();
        let (mut vs, mut taus, mut perm, mut norms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let pivot = sorted.then_some(SortedPivot {
            perm: &mut perm,
            norms: &mut norms,
        });
        householder_into(&mut r_full, &mut vs, &mut taus, pivot);
        if !sorted {
            perm.extend(0..h.cols());
        }
        Oracle {
            r_full,
            vs,
            taus,
            perm,
        }
    }

    /// The thin `m × m` factor.
    pub fn r(&self) -> Matrix<F> {
        let m = self.r_full.cols();
        self.r_full.block(0, m, 0, m)
    }

    /// `(Qᴴy)[..m]` and the tail energy `‖(Qᴴy)[m..]‖²` of one vector.
    pub fn apply_qty(&self, y: &[Complex<F>]) -> (CVector<F>, F) {
        let m = self.r_full.cols();
        let mut x = y.to_vec();
        apply_qh_slices(&self.vs, &self.taus, &mut x);
        let tail = crate::vector::norm_sqr(&x[m..]);
        x.truncate(m);
        (x, tail)
    }

    /// `Qᴴ Y` of an `n × B` block by the scalar block sweep.
    pub fn apply_qty_block(&self, ys: &Matrix<F>) -> Matrix<F> {
        let mut yblock = ys.clone();
        apply_qh_block(&self.vs, &self.taus, &mut yblock);
        yblock
    }
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

/// Apply `Q^H` to the columns of `yblock` in place: one reflector sweep
/// across the block, each column summing its products in the same order
/// as `apply_qh_slices`.
fn apply_qh_block<F: Float>(vs: &[CVector<F>], taus: &[F], yblock: &mut Matrix<F>) {
    let b = yblock.cols();
    let mut wrow = Vec::new();
    for (k, (v, &tau)) in vs.iter().zip(taus.iter()).enumerate() {
        if tau == F::ZERO {
            continue;
        }
        wrow.clear();
        wrow.resize(b, Complex::zero());
        for (i, vi) in v.iter().enumerate() {
            let c = vi.conj();
            for (w, x) in wrow.iter_mut().zip(yblock.row(k + i).iter()) {
                Complex::mul_acc(w, c, *x);
            }
        }
        for w in wrow.iter_mut() {
            *w = w.scale(tau);
        }
        for (i, &vi) in v.iter().enumerate() {
            for (x, w) in yblock.row_mut(k + i).iter_mut().zip(wrow.iter()) {
                *x -= *w * vi;
            }
        }
    }
}

/// Column state of a sorted QR while its sweep runs.
struct SortedPivot<'a, F> {
    perm: &'a mut Vec<usize>,
    norms: &'a mut Vec<F>,
}

impl<F: Float> SortedPivot<'_, F> {
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

    fn downdate(&mut self, a: &Matrix<F>, k: usize) {
        for (nj, r_kj) in self.norms[k + 1..].iter_mut().zip(&a.row(k)[k + 1..]) {
            *nj -= r_kj.norm_sqr();
        }
    }
}

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
    x.clear();
    x.extend((k..n).map(|r| a[(r, k)]));
    let norm_x = crate::vector::norm(x);
    if norm_x <= F::epsilon() {
        return F::ZERO;
    }
    let alpha = x[0];
    let alpha_abs = alpha.abs();
    let beta = if alpha_abs > F::ZERO {
        alpha.scale(-norm_x / alpha_abs)
    } else {
        Complex::from_real(-norm_x)
    };
    x[0] = alpha - beta;
    let vhv = norm_x * norm_x + alpha_abs * norm_x;
    let tau = if vhv > F::ZERO { F::ONE / vhv } else { F::ZERO };
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
    a[(k, k)] = beta;
    for r in k + 1..n {
        a[(r, k)] = Complex::zero();
    }
    tau
}
