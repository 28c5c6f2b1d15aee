//! Vectorized fixed-point expansion kernels (the quantized counterpart of
//! `gemm_broadcast_acc_into` + the per-level metric update).
//!
//! The float hot loop evaluates, for every open node `b` and child symbol
//! `c` at tree depth `k`,
//!
//! ```text
//! inc(b, c) = ‖ ŷ_i − Σ_off â[off]·ŝ[off, b] − r̂_ii ⊗ ŝ_c ‖
//! ```
//!
//! The middle sum (the *suffix* term) depends only on the node, and the
//! last product (the *seed*) only on the child — exactly the structure the
//! paper's broadcast-GEMM exploits. The fixed-point kernel splits along
//! the same line:
//!
//! * [`fx_suffix_cmac`] — one complex multiply-accumulate row, vectorized
//!   *across node lanes* on split re/im `i16` planes into `i32`
//!   accumulators;
//! * [`fx_metric_update`] — residual-minus-seed and the ℓ2/ℓ∞ reduction,
//!   vectorized *across child lanes*; the fixed-point engines call it
//!   once per survivor row;
//! * [`fx_expand_level_multi`] — both fused over a batch of open nodes.
//!
//! All arithmetic is exact in the containers chosen by [`crate::fixed`]
//! (no rounding inside the kernels), so the portable lane-unrolled
//! implementation and the AVX2 implementation behind the
//! `simd-intrinsics` feature are **bit-identical** — pinned by tests, not
//! just intended. Dispatch is a one-time `is_x86_feature_detected`
//! lookup; hosts without AVX2 (or builds without the feature) always take
//! the portable path.

use crate::fixed::MetricKind;

/// Portable lane width. Eight `i32` accumulators match one AVX2 register,
/// so the unrolled portable loop and the intrinsics loop have the same
/// shape (and identical results, since integer ops are exact).
const LANES: usize = 8;

#[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
fn use_avx2() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Accumulate one suffix row term across node lanes:
/// `w[b] += a ⊗ s[b]` for every node `b`, on split re/im planes.
///
/// `a` is one quantized `R` coefficient (Q-scaled `i16`), `s_*` one row of
/// the compressed suffix-symbol planes, `w_*` the per-node `i32` complex
/// accumulators. Exact by the overflow analysis in [`crate::fixed`].
#[inline]
pub fn fx_suffix_cmac(
    a_re: i16,
    a_im: i16,
    s_re: &[i16],
    s_im: &[i16],
    w_re: &mut [i32],
    w_im: &mut [i32],
) {
    let b = w_re.len();
    assert_eq!(w_im.len(), b);
    assert!(s_re.len() >= b && s_im.len() >= b);
    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    if use_avx2() {
        // SAFETY: AVX2 presence checked at runtime; slice bounds asserted.
        unsafe { avx2::suffix_cmac(a_re, a_im, s_re, s_im, w_re, w_im) };
        return;
    }
    fx_suffix_cmac_portable(a_re, a_im, s_re, s_im, w_re, w_im);
}

/// Portable (lane-unrolled) implementation of [`fx_suffix_cmac`].
#[inline]
pub fn fx_suffix_cmac_portable(
    a_re: i16,
    a_im: i16,
    s_re: &[i16],
    s_im: &[i16],
    w_re: &mut [i32],
    w_im: &mut [i32],
) {
    let b = w_re.len();
    assert_eq!(w_im.len(), b);
    assert!(s_re.len() >= b && s_im.len() >= b);
    let (ar, ai) = (a_re as i32, a_im as i32);
    let mut i = 0;
    while i + LANES <= b {
        // Fixed trip count: the compiler unrolls and auto-vectorizes this.
        for l in 0..LANES {
            let sr = s_re[i + l] as i32;
            let si = s_im[i + l] as i32;
            w_re[i + l] += ar * sr - ai * si;
            w_im[i + l] += ar * si + ai * sr;
        }
        i += LANES;
    }
    while i < b {
        let sr = s_re[i] as i32;
        let si = s_im[i] as i32;
        w_re[i] += ar * sr - ai * si;
        w_im[i] += ar * si + ai * sr;
        i += 1;
    }
}

/// Per-child metric increments for one node: given the node residual
/// `u = ŷ − w` and the per-child seeds `r̂_ii ⊗ ŝ_c`, write
/// `out[c] = reduce(u − seed_c)` where `reduce` is `|·|²` (ℓ2, exact in
/// `i64`) or `max(|Re|, |Im|)` (ℓ∞).
#[inline]
pub fn fx_metric_update(
    u_re: i32,
    u_im: i32,
    seed_re: &[i32],
    seed_im: &[i32],
    metric: MetricKind,
    out: &mut [i64],
) {
    let p = out.len();
    assert!(seed_re.len() >= p && seed_im.len() >= p);
    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    if use_avx2() {
        // SAFETY: AVX2 presence checked at runtime; slice bounds asserted.
        unsafe { avx2::metric_update(u_re, u_im, seed_re, seed_im, metric, out) };
        return;
    }
    fx_metric_update_portable(u_re, u_im, seed_re, seed_im, metric, out);
}

/// Portable (lane-unrolled) implementation of [`fx_metric_update`].
#[inline]
pub fn fx_metric_update_portable(
    u_re: i32,
    u_im: i32,
    seed_re: &[i32],
    seed_im: &[i32],
    metric: MetricKind,
    out: &mut [i64],
) {
    let p = out.len();
    assert!(seed_re.len() >= p && seed_im.len() >= p);
    match metric {
        MetricKind::L2 => {
            for c in 0..p {
                let dr = (u_re - seed_re[c]) as i64;
                let di = (u_im - seed_im[c]) as i64;
                out[c] = dr * dr + di * di;
            }
        }
        MetricKind::LInf => {
            for c in 0..p {
                let dr = (u_re - seed_re[c]).abs() as i64;
                let di = (u_im - seed_im[c]).abs() as i64;
                out[c] = dr.max(di);
            }
        }
    }
}

/// Fused per-level expansion: suffix CMAC over `depth` rows, then the
/// metric update for all `b × p` (node, child) pairs, each node against
/// its own received component.
///
/// * `a_*` — quantized suffix coefficients of this level's `R` row,
///   deepest ancestor first (`len = depth`);
/// * `s_*` — compressed suffix symbol planes, row-major `depth × b`
///   (row `off`, column `node`), same layout as the float batcher;
/// * `y_*` — per-node quantized received component (`len ≥ b`);
/// * `seed_*` — per-child seeds `r̂_ii ⊗ ŝ_c` (`len ≥ p`);
/// * `w_*` — caller scratch (`len ≥ b`), overwritten;
/// * `out` — `b × p` row-major increments.
///
/// A whole coherence block shares `R` (hence `a_*`, the seeds and the
/// symbol planes' alphabet), so the frontiers of all its subcarriers can
/// be stacked into one node axis and expanded in one call per tree level;
/// the only per-subcarrier input is ŷ, which enters at the final
/// residual. The suffix CMAC never reads ŷ, so every node's increments
/// equal a call on that subcarrier's nodes alone (pinned by tests).
#[allow(clippy::too_many_arguments)]
pub fn fx_expand_level_multi(
    a_re: &[i16],
    a_im: &[i16],
    s_re: &[i16],
    s_im: &[i16],
    b: usize,
    y_re: &[i32],
    y_im: &[i32],
    seed_re: &[i32],
    seed_im: &[i32],
    metric: MetricKind,
    w_re: &mut [i32],
    w_im: &mut [i32],
    out: &mut [i64],
) {
    let depth = a_re.len();
    let p = seed_re.len();
    assert_eq!(a_im.len(), depth);
    assert_eq!(seed_im.len(), p);
    assert!(y_re.len() >= b && y_im.len() >= b);
    assert!(s_re.len() >= depth * b && s_im.len() >= depth * b);
    assert!(w_re.len() >= b && w_im.len() >= b);
    assert!(out.len() >= b * p);
    w_re[..b].fill(0);
    w_im[..b].fill(0);
    for off in 0..depth {
        let row = off * b;
        fx_suffix_cmac(
            a_re[off],
            a_im[off],
            &s_re[row..row + b],
            &s_im[row..row + b],
            &mut w_re[..b],
            &mut w_im[..b],
        );
    }
    for bi in 0..b {
        let u_re = y_re[bi] - w_re[bi];
        let u_im = y_im[bi] - w_im[bi];
        fx_metric_update(
            u_re,
            u_im,
            seed_re,
            seed_im,
            metric,
            &mut out[bi * p..(bi + 1) * p],
        );
    }
}

/// Fully-portable variant of [`fx_expand_level_multi`] (never dispatches
/// to intrinsics) — the oracle for the bit-identity tests.
#[allow(clippy::too_many_arguments)]
pub fn fx_expand_level_multi_portable(
    a_re: &[i16],
    a_im: &[i16],
    s_re: &[i16],
    s_im: &[i16],
    b: usize,
    y_re: &[i32],
    y_im: &[i32],
    seed_re: &[i32],
    seed_im: &[i32],
    metric: MetricKind,
    w_re: &mut [i32],
    w_im: &mut [i32],
    out: &mut [i64],
) {
    let depth = a_re.len();
    let p = seed_re.len();
    assert_eq!(a_im.len(), depth);
    assert_eq!(seed_im.len(), p);
    assert!(y_re.len() >= b && y_im.len() >= b);
    assert!(s_re.len() >= depth * b && s_im.len() >= depth * b);
    assert!(w_re.len() >= b && w_im.len() >= b);
    assert!(out.len() >= b * p);
    w_re[..b].fill(0);
    w_im[..b].fill(0);
    for off in 0..depth {
        let row = off * b;
        fx_suffix_cmac_portable(
            a_re[off],
            a_im[off],
            &s_re[row..row + b],
            &s_im[row..row + b],
            &mut w_re[..b],
            &mut w_im[..b],
        );
    }
    for bi in 0..b {
        fx_metric_update_portable(
            y_re[bi] - w_re[bi],
            y_im[bi] - w_im[bi],
            seed_re,
            seed_im,
            metric,
            &mut out[bi * p..(bi + 1) * p],
        );
    }
}

#[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
mod avx2 {
    //! AVX2 implementations. Integer arithmetic only — exact, hence
    //! bit-identical to the portable kernels by construction; the tests
    //! in this module's parent pin that equivalence on random inputs.

    use super::MetricKind;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure AVX2 is available and slice bounds as asserted
    /// by [`super::fx_suffix_cmac`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn suffix_cmac(
        a_re: i16,
        a_im: i16,
        s_re: &[i16],
        s_im: &[i16],
        w_re: &mut [i32],
        w_im: &mut [i32],
    ) {
        let b = w_re.len();
        let var = _mm256_set1_epi32(a_re as i32);
        let vai = _mm256_set1_epi32(a_im as i32);
        let mut i = 0;
        while i + 8 <= b {
            // Widen 8 i16 symbol lanes to i32.
            let sr = _mm256_cvtepi16_epi32(_mm_loadu_si128(s_re.as_ptr().add(i) as *const _));
            let si = _mm256_cvtepi16_epi32(_mm_loadu_si128(s_im.as_ptr().add(i) as *const _));
            let rr = _mm256_mullo_epi32(var, sr);
            let ii = _mm256_mullo_epi32(vai, si);
            let ri = _mm256_mullo_epi32(var, si);
            let ir = _mm256_mullo_epi32(vai, sr);
            let wr = _mm256_loadu_si256(w_re.as_ptr().add(i) as *const _);
            let wi = _mm256_loadu_si256(w_im.as_ptr().add(i) as *const _);
            _mm256_storeu_si256(
                w_re.as_mut_ptr().add(i) as *mut _,
                _mm256_add_epi32(wr, _mm256_sub_epi32(rr, ii)),
            );
            _mm256_storeu_si256(
                w_im.as_mut_ptr().add(i) as *mut _,
                _mm256_add_epi32(wi, _mm256_add_epi32(ri, ir)),
            );
            i += 8;
        }
        let (ar, ai) = (a_re as i32, a_im as i32);
        while i < b {
            let sr = s_re[i] as i32;
            let si = s_im[i] as i32;
            w_re[i] += ar * sr - ai * si;
            w_im[i] += ar * si + ai * sr;
            i += 1;
        }
    }

    /// Widen the two 4-lane halves of an i32 vector to i64 and store the
    /// lane-wise combination `re² + im²` (exact: `mul_epi32` is a full
    /// 32×32→64 signed multiply).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_sq_sum(dr: __m256i, di: __m256i, out: *mut i64) {
        let dr_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(dr));
        let dr_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(dr));
        let di_lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(di));
        let di_hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(di));
        let lo = _mm256_add_epi64(
            _mm256_mul_epi32(dr_lo, dr_lo),
            _mm256_mul_epi32(di_lo, di_lo),
        );
        let hi = _mm256_add_epi64(
            _mm256_mul_epi32(dr_hi, dr_hi),
            _mm256_mul_epi32(di_hi, di_hi),
        );
        _mm256_storeu_si256(out as *mut _, lo);
        _mm256_storeu_si256(out.add(4) as *mut _, hi);
    }

    /// # Safety
    /// Caller must ensure AVX2 is available and slice bounds as asserted
    /// by [`super::fx_metric_update`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn metric_update(
        u_re: i32,
        u_im: i32,
        seed_re: &[i32],
        seed_im: &[i32],
        metric: MetricKind,
        out: &mut [i64],
    ) {
        let p = out.len();
        let vur = _mm256_set1_epi32(u_re);
        let vui = _mm256_set1_epi32(u_im);
        let mut i = 0;
        while i + 8 <= p {
            let dr = _mm256_sub_epi32(vur, _mm256_loadu_si256(seed_re.as_ptr().add(i) as *const _));
            let di = _mm256_sub_epi32(vui, _mm256_loadu_si256(seed_im.as_ptr().add(i) as *const _));
            match metric {
                MetricKind::L2 => store_sq_sum(dr, di, out.as_mut_ptr().add(i)),
                MetricKind::LInf => {
                    // |d| < 2^31 by the overflow analysis, so abs_epi32
                    // never sees i32::MIN and max/widen are exact.
                    let m = _mm256_max_epi32(_mm256_abs_epi32(dr), _mm256_abs_epi32(di));
                    let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m));
                    let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(m));
                    _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut _, lo);
                    _mm256_storeu_si256(out.as_mut_ptr().add(i + 4) as *mut _, hi);
                }
            }
            i += 8;
        }
        if i < p {
            super::fx_metric_update_portable(
                u_re,
                u_im,
                &seed_re[i..],
                &seed_im[i..],
                metric,
                &mut out[i..],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scalar complex reference: no lane structure at all.
    #[allow(clippy::too_many_arguments)]
    fn expand_reference(
        a_re: &[i16],
        a_im: &[i16],
        s_re: &[i16],
        s_im: &[i16],
        b: usize,
        y_re: i32,
        y_im: i32,
        seed_re: &[i32],
        seed_im: &[i32],
        metric: MetricKind,
    ) -> Vec<i64> {
        let p = seed_re.len();
        let mut out = vec![0i64; b * p];
        for bi in 0..b {
            let mut wr = 0i32;
            let mut wi = 0i32;
            for (off, (&ar, &ai)) in a_re.iter().zip(a_im).enumerate() {
                let sr = s_re[off * b + bi] as i32;
                let si = s_im[off * b + bi] as i32;
                wr += ar as i32 * sr - ai as i32 * si;
                wi += ar as i32 * si + ai as i32 * sr;
            }
            for c in 0..p {
                let dr = ((y_re - wr) - seed_re[c]) as i64;
                let di = ((y_im - wi) - seed_im[c]) as i64;
                out[bi * p + c] = match metric {
                    MetricKind::L2 => dr * dr + di * di,
                    MetricKind::LInf => dr.abs().max(di.abs()),
                };
            }
        }
        out
    }

    /// Random inputs inside the documented Q-format bounds.
    #[allow(clippy::type_complexity)]
    fn random_problem(
        rng: &mut StdRng,
        depth: usize,
        b: usize,
        p: usize,
    ) -> (
        Vec<i16>,
        Vec<i16>,
        Vec<i16>,
        Vec<i16>,
        i32,
        i32,
        Vec<i32>,
        Vec<i32>,
    ) {
        let coef = |rng: &mut StdRng| rng.gen_range(-2047i32..=2047) as i16;
        let sym = |rng: &mut StdRng| rng.gen_range(-4424i32..=4424) as i16;
        let a_re: Vec<i16> = (0..depth).map(|_| coef(rng)).collect();
        let a_im: Vec<i16> = (0..depth).map(|_| coef(rng)).collect();
        let s_re: Vec<i16> = (0..depth * b).map(|_| sym(rng)).collect();
        let s_im: Vec<i16> = (0..depth * b).map(|_| sym(rng)).collect();
        let y_re = rng.gen_range(-(1 << 29)..=(1 << 29));
        let y_im = rng.gen_range(-(1 << 29)..=(1 << 29));
        let seed_mag = 2 * 2047 * 4424;
        let seed_re: Vec<i32> = (0..p)
            .map(|_| rng.gen_range(-seed_mag..=seed_mag))
            .collect();
        let seed_im: Vec<i32> = (0..p)
            .map(|_| rng.gen_range(-seed_mag..=seed_mag))
            .collect();
        (a_re, a_im, s_re, s_im, y_re, y_im, seed_re, seed_im)
    }

    #[test]
    fn fused_kernel_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(depth, b, p) in &[(0, 1, 4), (1, 8, 16), (3, 5, 7), (8, 256, 16), (15, 33, 64)] {
            let (a_re, a_im, s_re, s_im, y_re, y_im, seed_re, seed_im) =
                random_problem(&mut rng, depth, b, p);
            for metric in [MetricKind::L2, MetricKind::LInf] {
                let want = expand_reference(
                    &a_re, &a_im, &s_re, &s_im, b, y_re, y_im, &seed_re, &seed_im, metric,
                );
                let (ys_re, ys_im) = (vec![y_re; b], vec![y_im; b]);
                let mut w_re = vec![0i32; b];
                let mut w_im = vec![0i32; b];
                let mut out = vec![0i64; b * p];
                fx_expand_level_multi(
                    &a_re, &a_im, &s_re, &s_im, b, &ys_re, &ys_im, &seed_re, &seed_im, metric,
                    &mut w_re, &mut w_im, &mut out,
                );
                assert_eq!(out, want, "dispatch kernel (depth={depth} b={b} p={p})");
                fx_expand_level_multi_portable(
                    &a_re, &a_im, &s_re, &s_im, b, &ys_re, &ys_im, &seed_re, &seed_im, metric,
                    &mut w_re, &mut w_im, &mut out,
                );
                assert_eq!(out, want, "portable kernel (depth={depth} b={b} p={p})");
            }
        }
    }

    /// The dispatching entry points must be bit-identical to the portable
    /// kernels — trivially true without `simd-intrinsics`, and the actual
    /// AVX2-vs-portable guarantee with it.
    #[test]
    fn dispatch_bit_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..50 {
            let depth = (trial % 16) + 1;
            let b = 1 + (trial * 13) % 70;
            let p = [2, 4, 8, 16, 64][trial % 5];
            let (a_re, a_im, s_re, s_im, y_re, y_im, seed_re, seed_im) =
                random_problem(&mut rng, depth, b, p);
            let (ys_re, ys_im) = (vec![y_re; b], vec![y_im; b]);
            for metric in [MetricKind::L2, MetricKind::LInf] {
                let mut w1 = (vec![0i32; b], vec![0i32; b]);
                let mut w2 = (vec![0i32; b], vec![0i32; b]);
                let mut o1 = vec![0i64; b * p];
                let mut o2 = vec![0i64; b * p];
                fx_expand_level_multi(
                    &a_re, &a_im, &s_re, &s_im, b, &ys_re, &ys_im, &seed_re, &seed_im, metric,
                    &mut w1.0, &mut w1.1, &mut o1,
                );
                fx_expand_level_multi_portable(
                    &a_re, &a_im, &s_re, &s_im, b, &ys_re, &ys_im, &seed_re, &seed_im, metric,
                    &mut w2.0, &mut w2.1, &mut o2,
                );
                assert_eq!(o1, o2, "trial {trial} metric {metric:?}");
                assert_eq!(w1, w2, "suffix accumulators, trial {trial}");
            }
        }
    }

    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    #[test]
    fn avx2_kernels_bit_identical_to_portable() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host has no AVX2, portable fallback is in use");
            return;
        }
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..100 {
            let b = 1 + trial % 40;
            let p = 1 + (trial * 7) % 70;
            let (a_re, a_im, _, _, y_re, y_im, seed_re, seed_im) =
                random_problem(&mut rng, 1, b, p);
            let s_re: Vec<i16> = (0..b)
                .map(|_| rng.gen_range(-4424i32..=4424) as i16)
                .collect();
            let s_im: Vec<i16> = (0..b)
                .map(|_| rng.gen_range(-4424i32..=4424) as i16)
                .collect();
            let mut wr1 = vec![1i32; b];
            let mut wi1 = vec![-2i32; b];
            let mut wr2 = wr1.clone();
            let mut wi2 = wi1.clone();
            // SAFETY: AVX2 checked above.
            unsafe { super::avx2::suffix_cmac(a_re[0], a_im[0], &s_re, &s_im, &mut wr1, &mut wi1) };
            fx_suffix_cmac_portable(a_re[0], a_im[0], &s_re, &s_im, &mut wr2, &mut wi2);
            assert_eq!((&wr1, &wi1), (&wr2, &wi2), "suffix_cmac trial {trial}");
            for metric in [MetricKind::L2, MetricKind::LInf] {
                let mut o1 = vec![0i64; p];
                let mut o2 = vec![0i64; p];
                // SAFETY: AVX2 checked above.
                unsafe {
                    super::avx2::metric_update(y_re, y_im, &seed_re, &seed_im, metric, &mut o1)
                };
                fx_metric_update_portable(y_re, y_im, &seed_re, &seed_im, metric, &mut o2);
                assert_eq!(o1, o2, "metric_update trial {trial} {metric:?}");
            }
        }
    }

    /// The multi-ŷ kernel on stacked lanes must match the scalar reference
    /// of each lane group on its own ŷ, bit for bit — the fixed-point
    /// fusion lemma.
    #[test]
    fn multi_y_kernel_matches_per_scalar_calls() {
        let mut rng = StdRng::seed_from_u64(61);
        for &(depth, fl, blocks, p) in &[(0, 1, 1, 4), (2, 4, 3, 8), (5, 16, 4, 16), (7, 3, 5, 7)] {
            let b = fl * blocks;
            let (a_re, a_im, s_re, s_im, _, _, seed_re, seed_im) =
                random_problem(&mut rng, depth, b, p);
            // One ŷ per block, broadcast to that block's `fl` node lanes.
            let block_y: Vec<(i32, i32)> = (0..blocks)
                .map(|_| {
                    (
                        rng.gen_range(-(1 << 29)..=(1 << 29)),
                        rng.gen_range(-(1 << 29)..=(1 << 29)),
                    )
                })
                .collect();
            let y_re: Vec<i32> = (0..b).map(|bi| block_y[bi / fl].0).collect();
            let y_im: Vec<i32> = (0..b).map(|bi| block_y[bi / fl].1).collect();
            for metric in [MetricKind::L2, MetricKind::LInf] {
                let mut w_re = vec![0i32; b];
                let mut w_im = vec![0i32; b];
                let mut fused = vec![0i64; b * p];
                fx_expand_level_multi(
                    &a_re, &a_im, &s_re, &s_im, b, &y_re, &y_im, &seed_re, &seed_im, metric,
                    &mut w_re, &mut w_im, &mut fused,
                );
                let mut portable = vec![0i64; b * p];
                fx_expand_level_multi_portable(
                    &a_re,
                    &a_im,
                    &s_re,
                    &s_im,
                    b,
                    &y_re,
                    &y_im,
                    &seed_re,
                    &seed_im,
                    metric,
                    &mut w_re,
                    &mut w_im,
                    &mut portable,
                );
                assert_eq!(fused, portable, "dispatch vs portable, depth={depth}");
                // Per-block scalar-ŷ references on the narrow slices.
                for blk in 0..blocks {
                    let mut nar_s_re = vec![0i16; depth * fl];
                    let mut nar_s_im = vec![0i16; depth * fl];
                    for off in 0..depth {
                        for l in 0..fl {
                            nar_s_re[off * fl + l] = s_re[off * b + blk * fl + l];
                            nar_s_im[off * fl + l] = s_im[off * b + blk * fl + l];
                        }
                    }
                    let want = expand_reference(
                        &a_re,
                        &a_im,
                        &nar_s_re,
                        &nar_s_im,
                        fl,
                        block_y[blk].0,
                        block_y[blk].1,
                        &seed_re,
                        &seed_im,
                        metric,
                    );
                    assert_eq!(
                        &fused[blk * fl * p..(blk + 1) * fl * p],
                        &want[..],
                        "block {blk} of {blocks}, depth={depth} fl={fl} p={p} {metric:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn metric_update_extreme_residuals_exact() {
        // The largest residuals the overflow analysis admits: make sure
        // the i64 squares don't wrap in either implementation.
        let u = 1_700_000_000i32;
        let seeds_re = [-18_111_856i32, 18_111_856, 0, 7];
        let seeds_im = [18_111_856i32, -18_111_856, 3, -9];
        let mut out = [0i64; 4];
        fx_metric_update(u, -u, &seeds_re, &seeds_im, MetricKind::L2, &mut out);
        for (c, &o) in out.iter().enumerate() {
            let dr = (u as i64 - seeds_re[c] as i64).pow(2);
            let di = (-u as i64 - seeds_im[c] as i64).pow(2);
            assert_eq!(o, dr + di);
        }
        fx_metric_update(u, -u, &seeds_re, &seeds_im, MetricKind::LInf, &mut out);
        for (c, &o) in out.iter().enumerate() {
            let dr = (u as i64 - seeds_re[c] as i64).abs();
            let di = (-u as i64 - seeds_im[c] as i64).abs();
            assert_eq!(o, dr.max(di));
        }
    }
}
