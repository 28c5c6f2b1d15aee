//! Real-valued-decomposition (RVD) sphere decoding.
//!
//! Geosphere \[14\] — the traversal strategy the paper adopts — actually
//! operates on the *real-valued decomposition* of the complex system:
//!
//! ```text
//! [Re y]   [Re H  −Im H] [Re s]
//! [Im y] = [Im H   Re H] [Im s]  + ñ
//! ```
//!
//! which doubles the tree depth to `2M` but shrinks the branching factor
//! to `√P` (the per-axis PAM alphabet). The total leaf count is
//! unchanged (`√P^{2M} = P^M`) and the optimum is identical, but the
//! finer-grained levels let the sorted traversal prune *inside* a
//! complex symbol — usually fewer generated nodes per decode at the cost
//! of a deeper pipeline. This variant quantifies that trade against the
//! paper's complex-domain formulation.
//!
//! Only square QAM constellations decompose (their real/imaginary parts
//! are independent PAM alphabets); BPSK is rejected.

use crate::arena::SearchWorkspace;
use crate::detector::Detection;
use crate::dfs::SphereDecoder;
use crate::engine::{impl_detector_via_prepared, PreparedDetector};
use crate::preprocess::{qr_flops, PrepScratch, Prepared};
use sd_math::{qr_with_qty, Complex, Float, Matrix};
use sd_wireless::{Constellation, FrameData, Modulation};

/// Sphere decoder over the real-valued decomposition.
#[derive(Clone, Debug)]
pub struct RvdSphereDecoder<F: Float = f64> {
    constellation: Constellation,
    /// PAM levels of one axis (unit-energy scaled).
    pam_levels: Vec<f64>,
    inner: SphereDecoder<F>,
}

impl<F: Float> RvdSphereDecoder<F> {
    /// Build an RVD decoder for a square-QAM constellation.
    ///
    /// # Panics
    /// For non-separable constellations (BPSK).
    pub fn new(constellation: Constellation) -> Self {
        let modulation = constellation.modulation();
        assert!(
            matches!(
                modulation,
                Modulation::Qam4 | Modulation::Qam16 | Modulation::Qam64
            ),
            "RVD requires a square QAM constellation, got {modulation}"
        );
        // Recover the per-axis PAM levels from the constellation points.
        let mut pam_levels: Vec<f64> = constellation
            .points()
            .iter()
            .map(|p| p.re)
            .collect::<Vec<_>>();
        pam_levels.sort_by(f64::total_cmp);
        pam_levels.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let inner = SphereDecoder::new(constellation.clone());
        RvdSphereDecoder {
            constellation,
            pam_levels,
            inner,
        }
    }

    /// The per-axis PAM alphabet size (`√P`).
    pub fn pam_order(&self) -> usize {
        self.pam_levels.len()
    }

    /// Build the real-valued `Prepared` problem: a `2N × 2M` real system
    /// expressed in the complex machinery (imaginary parts all zero).
    ///
    /// Columns are *interleaved* — `[Re s_0, Im s_0, Re s_1, …]` — so the
    /// tree fixes both components of one complex symbol on consecutive
    /// levels (detecting them `M` levels apart would cripple pruning).
    fn prepare(&self, frame: &FrameData) -> Prepared<F> {
        let (n, m) = frame.h.shape();
        let h_real = Matrix::from_fn(2 * n, 2 * m, |i, j| {
            let hij = frame.h[(i % n, j / 2)];
            let re_col = j % 2 == 0; // column multiplies Re s_{j/2}?
            let v = match (i < n, re_col) {
                (true, true) => hij.re,
                (true, false) => -hij.im,
                (false, true) => hij.im,
                (false, false) => hij.re,
            };
            Complex::from_real(F::from_f64(v))
        });
        let y_real: Vec<Complex<F>> = (0..2 * n)
            .map(|i| {
                let v = if i < n {
                    frame.y[i].re
                } else {
                    frame.y[i - n].im
                };
                Complex::from_real(F::from_f64(v))
            })
            .collect();
        let (r, ybar, tail_energy) = qr_with_qty(&h_real, &y_real);
        Prepared {
            r,
            ybar,
            tail_energy,
            points: self
                .pam_levels
                .iter()
                .map(|&l| Complex::from_real(F::from_f64(l)))
                .collect(),
            n_tx: 2 * m,
            order: self.pam_levels.len(),
            prep_flops: qr_flops(2 * n, 2 * m),
            perm: (0..2 * m).collect(),
            h: Matrix::zeros(0, 0),
            y: Vec::new(),
            noise_variance: frame.noise_variance,
        }
    }
}

impl<F: Float> PreparedDetector<F> for RvdSphereDecoder<F> {
    fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        // The real system doubles the row count, so the noise-scaled
        // radius policies see `2N` receive dimensions.
        self.inner.initial_radius.resolve(2 * n_rx, noise_variance)
    }

    /// RVD replaces the shared complex-domain QR with its doubled real
    /// system; `scratch` is unused because the decomposition rebuilds the
    /// problem from the raw frame.
    fn prepare_frame_into(
        &self,
        frame: &FrameData,
        _scratch: &mut PrepScratch<F>,
        prep: &mut Prepared<F>,
    ) {
        *prep = self.prepare(frame);
    }

    /// Run the inner sorted-DFS over the `2M`-level real tree, then fold
    /// the interleaved PAM decisions back to `M` complex symbols in
    /// place.
    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        PreparedDetector::detect_prepared_into(&self.inner, prep, radius_sqr, ws, out);
        // Map the interleaved 2M PAM decisions back to M complex symbols.
        // In-place is safe: iteration `k` writes slot `k` and only reads
        // slots `2k`/`2k+1`, which no later iteration has overwritten.
        let m = prep.n_tx / 2;
        for k in 0..m {
            let re = self.pam_levels[out.indices[2 * k]];
            let im = self.pam_levels[out.indices[2 * k + 1]];
            out.indices[k] = self.constellation.slice(Complex::new(re, im));
        }
        out.indices.truncate(m);
    }
}

impl_detector_via_prepared!(RvdSphereDecoder<F>, "SD real-valued decomposition");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::noise_variance;

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
    fn pam_alphabets() {
        assert_eq!(
            RvdSphereDecoder::<f64>::new(Constellation::new(Modulation::Qam4)).pam_order(),
            2
        );
        assert_eq!(
            RvdSphereDecoder::<f64>::new(Constellation::new(Modulation::Qam16)).pam_order(),
            4
        );
        assert_eq!(
            RvdSphereDecoder::<f64>::new(Constellation::new(Modulation::Qam64)).pam_order(),
            8
        );
    }

    #[test]
    fn matches_complex_domain_ml_qam4() {
        let (c, frames) = frames(5, Modulation::Qam4, 8.0, 30, 140);
        let rvd: RvdSphereDecoder<f64> = RvdSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(rvd.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn matches_complex_domain_ml_qam16() {
        let (c, frames) = frames(3, Modulation::Qam16, 8.0, 15, 141);
        let rvd: RvdSphereDecoder<f64> = RvdSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(rvd.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn metric_equals_complex_domain_metric() {
        let (c, frames) = frames(6, Modulation::Qam4, 6.0, 10, 142);
        let rvd: RvdSphereDecoder<f64> = RvdSphereDecoder::new(c.clone());
        let complex: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            let a = rvd.detect(f);
            let b = complex.detect(f);
            // Same optimum metric (the decomposition is isometric).
            assert!(
                (a.stats.final_radius_sqr - b.stats.final_radius_sqr).abs() < 1e-8,
                "{} vs {}",
                a.stats.final_radius_sqr,
                b.stats.final_radius_sqr
            );
        }
    }

    #[test]
    fn tree_is_deeper_but_narrower() {
        let (c, frames) = frames(6, Modulation::Qam16, 10.0, 10, 143);
        let rvd: RvdSphereDecoder<f64> = RvdSphereDecoder::new(c.clone());
        let complex: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut rvd_nodes = 0u64;
        let mut cx_nodes = 0u64;
        for f in &frames {
            let a = rvd.detect(f);
            let b = complex.detect(f);
            assert_eq!(a.stats.per_level_generated.len(), 12, "2M levels");
            assert_eq!(b.stats.per_level_generated.len(), 6, "M levels");
            rvd_nodes += a.stats.nodes_generated;
            cx_nodes += b.stats.nodes_generated;
        }
        // Finer-grained pruning: RVD should not generate more nodes at
        // 16-QAM (each complex expansion costs 16 children vs 2×4).
        assert!(
            rvd_nodes < cx_nodes,
            "RVD {rvd_nodes} should explore fewer generated nodes than complex {cx_nodes}"
        );
    }

    #[test]
    #[should_panic(expected = "square QAM")]
    fn bpsk_rejected() {
        RvdSphereDecoder::<f64>::new(Constellation::new(Modulation::Bpsk));
    }
}
