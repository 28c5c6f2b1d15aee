//! Shared-prep block decoding: serve a whole coherence block through one
//! engine.
//!
//! An OFDM frame hands the detector many receive vectors that share one
//! channel matrix. [`decode_block_budgeted_into`] decodes such a block
//! through any [`PreparedDetector`]: engines whose preparation is
//! channel-splittable ([`PreparedDetector::channel_cacheable`]) get the
//! fast path — one [`prepare_frame_block_into`] factorization plus one
//! batched `ȳ = QᴴY` apply for the whole block, then a per-subcarrier tree
//! search reusing a single workspace — while engines with bespoke
//! preparation (the linear family, the real-valued decomposition) fall back
//! to per-vector preparation. Either way every subcarrier's detection is
//! bit-identical to a standalone `prepare_frame_into` +
//! `detect_prepared_budgeted_into` of that subcarrier under the same
//! budget, which is the contract the serve layer's frame exactness tests
//! pin down. [`decode_block_fused_into`] runs the same preparation and
//! hands the block to the engine's fused hook.

use crate::arena::SearchWorkspace;
use crate::detector::Detection;
use crate::engine::{DecodeBudget, PreparedDetector};
use crate::preprocess::{prepare_frame_block_into, BlockPrep, PrepScratch, Prepared};
use sd_math::Float;
use sd_wireless::FrameData;

/// Decode a coherence block — `frames` all sharing one `H` — through
/// `det` under a per-subcarrier [`DecodeBudget`], writing subcarrier `k`'s
/// detection into `out[k]`. Every subcarrier's search runs with the same
/// budget, so an anytime engine caps each tree walk independently rather
/// than racing the whole block against one pool. All state (`scratch`,
/// `block`, `prep`, `ws`) is caller-owned and reused, so the steady-state
/// path allocates nothing.
///
/// Returns the number of channel preparations performed: `1` on the
/// shared-prep path, `frames.len()` on the per-vector fallback — the
/// numerator of the serve layer's prep-amortization ratio.
///
/// # Panics
/// If `out.len() != frames.len()`, or (on the shared-prep path) if the
/// frames do not share one channel matrix.
#[allow(clippy::too_many_arguments)]
pub fn decode_block_budgeted_into<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> usize {
    assert_eq!(
        frames.len(),
        out.len(),
        "need one Detection slot per subcarrier"
    );
    if frames.is_empty() {
        return 0;
    }
    if det.channel_cacheable() {
        prepare_frame_block_into(
            frames,
            det.constellation(),
            det.ordering(),
            scratch,
            block,
            prep,
        );
        decode_prepared_loop(det, block, frames, budget, prep, ws, out);
        1
    } else {
        decode_per_vector(det, frames, budget, scratch, prep, ws, out)
    }
}

/// Cross-subcarrier *fused* block decode: one tree search — one GEMM
/// batch per tree level — for the whole coherence block, instead of
/// `frames.len()` independent searches.
///
/// After the shared preparation the block goes to
/// [`PreparedDetector::detect_block_prepared_budgeted_into`]: the
/// level-synchronous, data-independent engines (K-best and the quantized
/// K-best/FSD) fuse it; everything else — and any decode with a trace
/// sink installed — runs the exact per-subcarrier loop of
/// [`decode_block_budgeted_into`]. Per-subcarrier results are
/// bit-identical either way; fusion is purely a scheduling change.
///
/// Returns `(prep_factors, fused)`: the channel-preparation count (as
/// [`decode_block_budgeted_into`]) and whether the fused path ran.
#[allow(clippy::too_many_arguments)]
pub fn decode_block_fused_into<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    block: &mut BlockPrep<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> (usize, bool) {
    assert_eq!(
        frames.len(),
        out.len(),
        "need one Detection slot per subcarrier"
    );
    if frames.is_empty() {
        return (0, false);
    }
    if det.channel_cacheable() {
        prepare_frame_block_into(
            frames,
            det.constellation(),
            det.ordering(),
            scratch,
            block,
            prep,
        );
        let fused = det.detect_block_prepared_budgeted_into(block, frames, budget, prep, ws, out);
        (1, fused)
    } else {
        let preps = decode_per_vector(det, frames, budget, scratch, prep, ws, out);
        (preps, false)
    }
}

/// The per-subcarrier loop over a prepared block — the unfused body of
/// [`PreparedDetector::detect_block_prepared_budgeted_into`]. `prep`
/// arrives as subcarrier 0's problem; each later subcarrier only swaps in
/// its `ȳ`.
pub(crate) fn decode_prepared_loop<F: Float, D: PreparedDetector<F> + ?Sized>(
    det: &D,
    block: &BlockPrep<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) {
    let n_rx = frames[0].h.rows();
    for (k, (f, d)) in frames.iter().zip(out.iter_mut()).enumerate() {
        if k > 0 {
            block.fill_prepared(k, f, prep);
        }
        let r2 = det.initial_radius_sqr(n_rx, f.noise_variance);
        det.detect_prepared_budgeted_into(prep, r2, budget, ws, d);
    }
}

/// Full per-vector preparation for engines whose preparation is not
/// channel-splittable. Returns the preparations performed.
fn decode_per_vector<F: Float>(
    det: &dyn PreparedDetector<F>,
    frames: &[FrameData],
    budget: &DecodeBudget,
    scratch: &mut PrepScratch<F>,
    prep: &mut Prepared<F>,
    ws: &mut SearchWorkspace<F>,
    out: &mut [Detection],
) -> usize {
    let n_rx = frames[0].h.rows();
    for (f, d) in frames.iter().zip(out.iter_mut()) {
        det.prepare_frame_into(f, scratch, prep);
        let r2 = det.initial_radius_sqr(n_rx, f.noise_variance);
        det.detect_prepared_budgeted_into(prep, r2, budget, ws, d);
    }
    frames.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KBestSd, MetricKind, MmseDetector, QuantizedFsd, QuantizedKBestSd, SphereDecoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, Constellation, Modulation};

    /// One coherence block: a single channel draw, fresh y per subcarrier.
    fn coherence_block(
        c: &Constellation,
        n: usize,
        len: usize,
        snr_db: f64,
        seed: u64,
    ) -> Vec<FrameData> {
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = FrameData::generate(n, n, c, sigma2, &mut rng);
        (0..len)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(n, n, c, sigma2, &mut rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect()
    }

    /// The block driver must reproduce the standalone per-frame decode
    /// bit-for-bit on both the shared-prep path and the fallback.
    #[test]
    fn block_decode_is_bit_identical_to_per_frame() {
        let c = Constellation::new(Modulation::Qam4);
        let dets: Vec<(&str, Box<dyn PreparedDetector<f64>>)> = vec![
            ("dfs", Box::new(SphereDecoder::new(c.clone()))),
            ("kbest", Box::new(KBestSd::new(c.clone(), 8))),
            ("kbest-fx", Box::new(QuantizedKBestSd::new(c.clone(), 8))),
            (
                "fsd-fx-linf",
                Box::new(QuantizedFsd::new(c.clone()).with_metric(MetricKind::LInf)),
            ),
            ("mmse", Box::new(MmseDetector::new(c.clone()))),
        ];
        let frames = coherence_block(&c, 6, 7, 12.0, 0xB10C_DEC0);
        let mut scratch = PrepScratch::new();
        let mut block = BlockPrep::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        let mut out: Vec<Detection> = (0..frames.len()).map(|_| Detection::default()).collect();
        for (name, det) in &dets {
            let preps = decode_block_budgeted_into(
                &**det,
                &frames,
                &DecodeBudget::UNLIMITED,
                &mut scratch,
                &mut block,
                &mut prep,
                &mut ws,
                &mut out,
            );
            if det.channel_cacheable() {
                assert_eq!(preps, 1, "{name}: shared-prep path");
            } else {
                assert_eq!(preps, frames.len(), "{name}: per-vector fallback");
            }
            for (k, f) in frames.iter().enumerate() {
                let solo = det.detect_frame(f);
                assert_eq!(out[k], solo, "{name}: subcarrier {k} differs");
            }
        }
    }

    /// A zero budget still yields complete, flagged detections on every
    /// subcarrier.
    #[test]
    fn zero_budget_block_decode_completes_every_subcarrier() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c.clone());
        let frames = coherence_block(&c, 6, 5, 10.0, 0xB10C_B0D9);
        let mut budgeted: Vec<Detection> = vec![Detection::default(); frames.len()];
        decode_block_budgeted_into(
            &det,
            &frames,
            &DecodeBudget::nodes(0),
            &mut PrepScratch::new(),
            &mut BlockPrep::new(),
            &mut Prepared::empty(),
            &mut SearchWorkspace::new(),
            &mut budgeted,
        );
        for d in &budgeted {
            assert_eq!(d.indices.len(), 6, "complete vector per subcarrier");
            assert!(d.stats.quality.is_truncated());
        }
    }

    #[test]
    fn empty_block_is_a_noop() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c);
        let mut scratch = PrepScratch::new();
        let mut block = BlockPrep::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        let preps = decode_block_budgeted_into(
            &det,
            &[],
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut [],
        );
        assert_eq!(preps, 0);
    }

    #[test]
    #[should_panic(expected = "one Detection slot per subcarrier")]
    fn mismatched_output_slots_panic() {
        let c = Constellation::new(Modulation::Qam4);
        let det = SphereDecoder::<f64>::new(c.clone());
        let frames = coherence_block(&c, 4, 3, 10.0, 1);
        let mut out = vec![Detection::default(); 2];
        decode_block_budgeted_into(
            &det,
            &frames,
            &DecodeBudget::UNLIMITED,
            &mut PrepScratch::new(),
            &mut BlockPrep::new(),
            &mut Prepared::empty(),
            &mut SearchWorkspace::new(),
            &mut out,
        );
    }
}
