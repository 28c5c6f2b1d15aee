//! Cross-crate tests for the fixed-point decode path: ℓ∞/ℓ2 pruning
//! admissibility against brute-force fixed-domain oracles, and the BER
//! gate that licenses the quantized engines as serve-ladder rungs.
//!
//! The BER methodology uses common random numbers: the float oracle and
//! the quantized candidate decode the *same* frame realizations
//! ([`run_link`] regenerates identically from the config seed), so the
//! measured SNR gap at the target BER is the quantization cost alone,
//! not Monte-Carlo variance between two independent sweeps.

use mimo_sd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::{preprocess, BlockPrep, PrepScratch, Prepared};
use sd_core::quantized::{FxPrepared, QuantizedSphereDecoder};
use sd_core::{
    decode_block_fused_into, reference, DecodeBudget, Detection, MetricKind, PreparedDetector,
    QuantizedFsd, QuantizedKBestSd, MAX_QUANT_DEGRADATION_DB,
};
use sd_wireless::degradation_db;

fn make_frame(n: usize, m: Modulation, snr_db: f64, seed: u64) -> (Constellation, FrameData) {
    let c = Constellation::new(m);
    let sigma2 = noise_variance(snr_db, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let f = FrameData::generate(n, n, &c, sigma2, &mut rng);
    (c, f)
}

fn modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qam4),
        Just(Modulation::Qam16),
    ]
}

fn metric() -> impl Strategy<Value = MetricKind> {
    prop_oneof![Just(MetricKind::L2), Just(MetricKind::LInf)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pruning admissibility, directly: a bounded search must return the
    /// brute-force optimum whenever the bound admits it (the sphere
    /// constraint never discards a leaf with metric ≤ b), and must
    /// report an empty sphere whenever no leaf qualifies.
    #[test]
    fn bounded_search_is_admissible(
        n in 2usize..6,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        metric in metric(),
        slack in 0i64..3,
    ) {
        // Keep the brute-force oracle tractable: P^M ≤ 4096.
        prop_assume!(m.order().pow(n as u32) <= 4096);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let mut fx = FxPrepared::new();
        fx.quantize_from(&prep);
        let (min, _) = fx.brute_force_min(metric);

        let sd = QuantizedSphereDecoder::new(c).with_metric(metric);
        // Bound at or above the optimum: the optimum must survive.
        let found = sd.detect_prepared_bounded(&prep, min.saturating_add(slack));
        prop_assert_eq!(found.map(|(v, _)| v), Some(min));
        // Bound strictly below every leaf: the sphere is empty. A search
        // that pruned inadmissibly could not tell these cases apart.
        prop_assert_eq!(sd.detect_prepared_bounded(&prep, min - 1), None);
    }

    /// The unbounded ℓ∞ (and ℓ2) engine lands exactly on the fixed-domain
    /// brute-force minimum — max-combined metrics stay monotone along
    /// paths, so sorted-DFS pruning loses nothing.
    #[test]
    fn quantized_dfs_matches_brute_force_oracle(
        n in 2usize..6,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        metric in metric(),
    ) {
        prop_assume!(m.order().pow(n as u32) <= 4096);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let mut fx = FxPrepared::new();
        fx.quantize_from(&prep);
        let (min, _) = fx.brute_force_min(metric);

        let sd = QuantizedSphereDecoder::new(c).with_metric(metric);
        let (found, _) = sd
            .detect_prepared_bounded(&prep, i64::MAX)
            .expect("unbounded sphere cannot be empty");
        prop_assert_eq!(found, min);
    }
}

/// `b` subcarriers sharing one channel, each with its own symbols and
/// noise.
fn coherent_block(b: usize, n: usize, c: &Constellation, snr_db: f64, seed: u64) -> Vec<FrameData> {
    let sigma2 = noise_variance(snr_db, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let base = FrameData::generate(n, n, c, sigma2, &mut rng);
    (0..b)
        .map(|_| {
            let fresh = FrameData::generate(n, n, c, sigma2, &mut rng);
            FrameData {
                y: fresh.y,
                tx: fresh.tx,
                ..base.clone()
            }
        })
        .collect()
}

/// Same indices, statistics and metric bits.
fn same_detection(got: &Detection, want: &Detection) -> bool {
    got == want && got.stats.final_radius_sqr.to_bits() == want.stats.final_radius_sqr.to_bits()
}

/// A fixed-point engine's plain oracle under a budget.
type FxOracle = Box<dyn Fn(&Prepared<f64>, &DecodeBudget) -> Detection>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fixed-point K-best and FSD engines return their plain oracles'
    /// bits (`reference::fx_kbest_reference`, `fx_fsd_reference`):
    /// indices, every statistics field and the metric bits. Scalar decodes
    /// and fused blocks of 1, 2 and 16 subcarriers; K ∈ {1, 3, 16, full
    /// width} and n_fe ∈ {0, 1, 2}; budgets that stay untripped, trip
    /// mid-sweep, or are zero; and blocks with tie-heavy (y = 0)
    /// subcarriers.
    #[test]
    fn fixed_point_sweeps_match_the_reference(
        n in 2usize..=10,
        qam16 in any::<bool>(),
        snr_db in 0.0f64..24.0,
        seed in any::<u64>(),
        metric in metric(),
        k_pick in 0usize..4,
        n_fe in 0usize..3,
        b in prop_oneof![Just(1usize), Just(2), Just(16)],
        trip in 1usize..10,
        ties in any::<bool>(),
    ) {
        let c = Constellation::new(if qam16 { Modulation::Qam16 } else { Modulation::Qam4 });
        // Full width keeps every leaf, so bound the tree at P^M ≤ 4096.
        let n = if k_pick == 3 { n.min(if qam16 { 3 } else { 6 }) } else { n };
        let k = [1, 3, 16, c.order().pow(n as u32)][k_pick];
        let mut frames = coherent_block(b, n, &c, snr_db, seed);
        if ties {
            // y = 0 puts every residual at a symmetry point of the
            // constellation: increments and metrics tie everywhere, so
            // only the tie-breaks decide.
            for f in frames.iter_mut().step_by(2) {
                for v in &mut f.y {
                    v.re = 0.0;
                    v.im = 0.0;
                }
            }
        }
        let kbest = QuantizedKBestSd::new(c.clone(), k).with_metric(metric);
        let fsd = QuantizedFsd::new(c.clone())
            .with_full_expansion_levels(n_fe)
            .with_metric(metric);
        let preps: Vec<Prepared<f64>> = frames.iter().map(|f| kbest.prepare_frame(f)).collect();
        let engines: [(&str, &dyn PreparedDetector<f64>, FxOracle); 2] = [
            (
                "k-best-fx",
                &kbest,
                Box::new(move |p, budget| reference::fx_kbest_reference(p, k, metric, budget)),
            ),
            (
                "fsd-fx",
                &fsd,
                Box::new(move |p, budget| reference::fx_fsd_reference(p, n_fe, metric, budget)),
            ),
        ];
        let mut ws = SearchWorkspace::new();
        let mut got = Detection::default();
        let mut block_out = vec![Detection::default(); b];
        for (name, det, oracle) in &engines {
            // The spend up to a level in 1..M trips the sweep right there.
            let levels = oracle(&preps[0], &DecodeBudget::UNLIMITED).stats.per_level_generated;
            let mid = levels[..1 + trip % (n - 1)].iter().sum();
            for budget in [
                DecodeBudget::UNLIMITED,
                DecodeBudget::nodes(mid),
                DecodeBudget::nodes(0),
            ] {
                let want: Vec<Detection> = preps.iter().map(|p| oracle(p, &budget)).collect();
                prop_assert_eq!(
                    want[0].stats.quality.is_truncated(),
                    budget.max_nodes != u64::MAX
                );
                for (sc, (prep, want)) in preps.iter().zip(&want).enumerate() {
                    det.detect_prepared_budgeted_into(prep, f64::INFINITY, &budget, &mut ws, &mut got);
                    prop_assert!(
                        same_detection(&got, want),
                        "{} scalar, {:?}, subcarrier {}:\n{:?}\n{:?}", name, budget, sc, got, want
                    );
                }
                let (_, fused) = decode_block_fused_into(
                    *det,
                    &frames,
                    &budget,
                    &mut PrepScratch::new(),
                    &mut BlockPrep::new(),
                    &mut Prepared::empty(),
                    &mut ws,
                    &mut block_out,
                );
                prop_assert!(fused, "{} must fuse", name);
                for (sc, (got, want)) in block_out.iter().zip(&want).enumerate() {
                    prop_assert!(
                        same_detection(got, want),
                        "{} fused B={}, {:?}, subcarrier {}:\n{:?}\n{:?}", name, b, budget, sc, got, want
                    );
                }
            }
        }
    }
}

/// Run one detector over an SNR sweep with common random numbers and
/// return its BER curve.
fn sweep(
    label: &str,
    n: usize,
    modulation: Modulation,
    snrs: &[f64],
    frames: usize,
    mut decode: impl FnMut(&FrameData) -> Vec<usize>,
) -> BerCurve {
    let mut curve = BerCurve::new(label);
    for &snr_db in snrs {
        let cfg = LinkConfig::square(n, modulation, snr_db).with_frames(frames);
        let stats = run_link(&cfg, &mut decode);
        curve.push(BerPoint::from_counter(snr_db, &stats.errors));
    }
    curve
}

fn assert_quantized_within_bound(n: usize, snrs: &[f64], frames: usize, target_ber: f64) {
    let c = Constellation::new(Modulation::Qam16);

    let oracle: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let mut ws = SearchWorkspace::new();
    let float_curve = sweep("sd-f64", n, Modulation::Qam16, snrs, frames, |f| {
        oracle.detect_in(f, &mut ws).indices
    });

    let quant = QuantizedSphereDecoder::new(c);
    let fixed_curve = sweep("sd-fx-i16", n, Modulation::Qam16, snrs, frames, |f| {
        quant.detect_frame(f).indices
    });

    assert!(
        float_curve.is_monotone_nonincreasing(0.5),
        "oracle curve not monotone: {float_curve:?}"
    );
    let d = degradation_db(&float_curve, &fixed_curve, target_ber).unwrap_or_else(|| {
        panic!(
            "BER {target_ber} not crossed in the measured span:\n{float_curve:?}\n{fixed_curve:?}"
        )
    });
    assert!(
        d <= MAX_QUANT_DEGRADATION_DB,
        "quantized path degrades {d:.3} dB at BER {target_ber} \
         (bound {MAX_QUANT_DEGRADATION_DB} dB)\n{float_curve:?}\n{fixed_curve:?}"
    );
}

/// The gate that licenses the fixed-point engines: ≤ 0.2 dB SNR penalty
/// vs the f64 exact oracle at the target BER (cheap 8×8 variant, always
/// run).
#[test]
fn quantized_ber_degradation_within_bound_8x8() {
    assert_quantized_within_bound(8, &[14.0, 16.0, 18.0, 20.0, 22.0], 120, 1e-2);
}

/// The paper's 16×16/16-QAM operating point. Expensive (exact DFS at low
/// SNR): run in release via `ci.sh`.
#[test]
#[ignore = "release-mode BER sweep; run via ci.sh"]
fn quantized_ber_degradation_within_bound_16x16() {
    assert_quantized_within_bound(16, &[16.0, 18.0, 20.0, 22.0], 150, 1e-2);
}
