//! Cross-crate tests for the fixed-point decode path: the served K-best
//! and FSD sweeps against their plain oracles, bit for bit, and the BER
//! gate that licenses them as serve-ladder rungs.
//!
//! The BER gate uses common random numbers: each quantized rung and the
//! float engine of the same configuration decode the *same* frame
//! realizations ([`run_link`] regenerates identically from the config
//! seed), so the measured SNR gap at the target BER is the quantization
//! cost alone, not Monte-Carlo variance between two independent sweeps.

use mimo_sd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::{BlockPrep, PrepScratch, Prepared};
use sd_core::{
    decode_block_fused_into, reference, DecodeBudget, Detection, MetricKind, PreparedDetector,
    QuantizedFsd, QuantizedKBestSd, MAX_QUANT_DEGRADATION_DB,
};
use sd_serve::LadderConfig;
use sd_wireless::degradation_db;

fn metric() -> impl Strategy<Value = MetricKind> {
    prop_oneof![Just(MetricKind::L2), Just(MetricKind::LInf)]
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
    /// and fused blocks of 1, 2, 7, 8, 16, 17 and 64 subcarriers — both
    /// sides of the 8-subcarrier bound from which a fused K-best cut runs
    /// in lanes, a lane count that is not a multiple of the vector width,
    /// and the `grid8_fx` frame width; K ∈ {1, 3, 16, full width} and
    /// n_fe ∈ {0, 1, 2}; budgets that stay untripped, trip mid-sweep, or
    /// are zero; and blocks with tie-heavy (y = 0) subcarriers.
    #[test]
    fn fixed_point_sweeps_match_the_reference(
        n in 2usize..=10,
        qam16 in any::<bool>(),
        snr_db in 0.0f64..24.0,
        seed in any::<u64>(),
        metric in metric(),
        k_pick in 0usize..4,
        n_fe in 0usize..3,
        b in prop_oneof![Just(1usize), Just(2), Just(7), Just(8), Just(16), Just(17), Just(64)],
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

/// SNR points `lo, lo + 2, …, hi` dB.
fn span(lo: u32, hi: u32) -> Vec<f64> {
    (lo..=hi).step_by(2).map(f64::from).collect()
}

/// Target BER of the quantization contract.
const TARGET_BER: f64 = 1e-2;

/// A float or fixed-point engine behind the one engine trait.
type Engine = Box<dyn PreparedDetector<f64>>;

/// The served fixed-point rungs, each with the float engine of the same
/// configuration, both in ℓ2: K-best at the ladder's `K`, and FSD with one
/// fully-expanded level (the sweep the `fsd-fx-linf` rung runs in ℓ∞, in
/// the metric the float FSD shares).
fn served_rungs(c: &Constellation) -> [(&'static str, Engine, Engine); 2] {
    let k = LadderConfig::default().kbest_k;
    [
        (
            "k-best-fx",
            Box::new(KBestSd::<f64>::new(c.clone(), k)),
            Box::new(QuantizedKBestSd::new(c.clone(), k).with_metric(MetricKind::L2)),
        ),
        (
            "fsd-fx",
            Box::new(FixedComplexitySd::<f64>::new(c.clone()).with_full_expansion(1)),
            Box::new(
                QuantizedFsd::new(c.clone())
                    .with_full_expansion_levels(1)
                    .with_metric(MetricKind::L2),
            ),
        ),
    ]
}

/// The quantization contract on one grid: every served rung may cost at
/// most [`MAX_QUANT_DEGRADATION_DB`] of SNR at [`TARGET_BER`] against its
/// float twin on the same frames. A curve that never crosses the target
/// inside `snrs` fails.
fn assert_served_rungs_within_bound(n: usize, modulation: Modulation, snrs: &[f64], frames: usize) {
    let c = Constellation::new(modulation);
    for (rung, float, fixed) in served_rungs(&c) {
        let mut ws = SearchWorkspace::new();
        let mut curve = |label: &str, det: &dyn PreparedDetector<f64>| {
            sweep(label, n, modulation, snrs, frames, |f| {
                det.detect_frame_in(f, &mut ws).indices
            })
        };
        let float_curve = curve("f64", &*float);
        let fixed_curve = curve(rung, &*fixed);
        let grid = format!("{rung} at {n}x{n} {modulation:?}");
        assert!(
            float_curve.is_monotone_nonincreasing(0.5),
            "{grid}: float curve not monotone: {float_curve:?}"
        );
        let d = degradation_db(&float_curve, &fixed_curve, TARGET_BER).unwrap_or_else(|| {
            panic!(
                "{grid}: BER {TARGET_BER} not crossed in the measured span:\n\
                 {float_curve:?}\n{fixed_curve:?}"
            )
        });
        eprintln!("{grid}: quantization cost {d:+.3} dB at BER {TARGET_BER}");
        assert!(
            d <= MAX_QUANT_DEGRADATION_DB,
            "{grid}: quantization costs {d:.3} dB at BER {TARGET_BER} \
             (bound {MAX_QUANT_DEGRADATION_DB} dB)\n{float_curve:?}\n{fixed_curve:?}"
        );
    }
}

/// The gate that licenses the fixed-point rungs on the 8×8 grids, 600
/// frames per SNR point: cheap enough for every `cargo test`.
#[test]
fn quantized_ber_degradation_within_bound_8x8() {
    assert_served_rungs_within_bound(8, Modulation::Qam4, &span(6, 20), 600);
    assert_served_rungs_within_bound(8, Modulation::Qam16, &span(14, 28), 600);
}

/// The paper's 16×16/16-QAM operating point at 600 frames per SNR point:
/// run in release via `ci.sh`.
#[test]
#[ignore = "release-mode BER sweep; run via ci.sh"]
fn quantized_ber_degradation_within_bound_16x16() {
    assert_served_rungs_within_bound(16, Modulation::Qam16, &span(14, 32), 600);
}
