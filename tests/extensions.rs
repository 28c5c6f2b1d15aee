//! Integration tests for the extension layer: ordering, K-best, soft
//! output, channel models, CSI error, and multi-pipeline deployment.

use mimo_sd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_wireless::montecarlo::generate_frames;

#[test]
fn ordering_never_changes_the_answer() {
    let cfg = LinkConfig::square(7, Modulation::Qam4, 6.0).with_frames(30);
    let c = Constellation::new(cfg.modulation);
    let (_, frames) = generate_frames(&cfg);
    let natural: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    for ordering in [
        ColumnOrdering::NormDescending,
        ColumnOrdering::NormAscending,
        ColumnOrdering::Sorted,
    ] {
        let ordered: SphereDecoder<f64> = SphereDecoder::new(c.clone()).with_ordering(ordering);
        for f in &frames {
            assert_eq!(
                ordered.detect(f).indices,
                natural.detect(f).indices,
                "{ordering:?} must stay ML-exact"
            );
        }
    }
}

#[test]
fn kbest_interpolates_between_linear_and_ml() {
    let cfg = LinkConfig::square(6, Modulation::Qam4, 8.0).with_frames(200);
    let c = Constellation::new(cfg.modulation);
    let (_, frames) = generate_frames(&cfg);
    let ml = MlDetector::new(c.clone());
    let zf = ZfDetector::new(c.clone());
    let kb: KBestSd<f64> = KBestSd::new(c.clone(), 16);
    let errs = |det: &dyn Detector| -> u64 {
        frames
            .iter()
            .map(|f| f.bit_errors(&det.detect(f).indices, &c))
            .sum()
    };
    let e_ml = errs(&ml);
    let e_kb = errs(&kb);
    let e_zf = errs(&zf);
    assert!(e_ml <= e_kb, "ML ({e_ml}) must not lose to K-best ({e_kb})");
    assert!(e_kb < e_zf, "K-best ({e_kb}) must beat ZF ({e_zf})");
}

#[test]
fn soft_decoder_is_exact_in_hard_decisions() {
    let cfg = LinkConfig::square(5, Modulation::Qam16, 10.0).with_frames(15);
    let c = Constellation::new(cfg.modulation);
    let (_, frames) = generate_frames(&cfg);
    let soft: SoftSphereDecoder<f64> = SoftSphereDecoder::new(c.clone());
    let ml = MlDetector::new(c);
    for f in &frames {
        let s = soft.detect_soft(f);
        assert_eq!(s.detection.indices, ml.detect(f).indices);
        assert_eq!(s.llrs.len(), 5 * 4);
    }
}

#[test]
fn correlated_channels_are_harder_for_every_detector() {
    let n = 8;
    let snr = 12.0;
    let c = Constellation::new(Modulation::Qam4);
    let sd: SphereDecoder<f32> = SphereDecoder::new(c.clone());
    let sigma2 = noise_variance(snr, n);
    let run = |model: ChannelModel, seed: u64| -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut errs = 0u64;
        let mut nodes = 0u64;
        for _ in 0..150 {
            let ch = model.realize(n, n, &mut rng);
            let tx = TxFrame::random(n, &c, &mut rng);
            let y = ch.transmit(&tx.symbols, sigma2, &mut rng);
            let frame = FrameData {
                h: ch.matrix().clone(),
                y,
                noise_variance: sigma2,
                tx,
            };
            let d = sd.detect(&frame);
            errs += frame.bit_errors(&d.indices, &c);
            nodes += d.stats.nodes_generated;
        }
        (errs, nodes)
    };
    let (e_iid, n_iid) = run(ChannelModel::Iid, 1);
    let (e_corr, n_corr) = run(
        ChannelModel::KroneckerExponential {
            rho_tx: 0.8,
            rho_rx: 0.8,
        },
        1,
    );
    assert!(
        e_corr > e_iid,
        "correlation must cost BER: {e_iid} vs {e_corr}"
    );
    assert!(
        n_corr > n_iid,
        "correlation must inflate the tree: {n_iid} vs {n_corr}"
    );
}

#[test]
fn csi_error_degrades_gracefully() {
    let n = 6;
    let c = Constellation::new(Modulation::Qam4);
    let sd: SphereDecoder<f32> = SphereDecoder::new(c.clone());
    let sigma2 = noise_variance(14.0, n);
    let run = |eps: f64| -> u64 {
        let mut rng = StdRng::seed_from_u64(77);
        let mut errs = 0u64;
        for _ in 0..200 {
            let mut frame = FrameData::generate(n, n, &c, sigma2, &mut rng);
            corrupt_csi(&mut frame, eps, &mut rng);
            errs += frame.bit_errors(&sd.detect(&frame).indices, &c);
        }
        errs
    };
    let perfect = run(0.0);
    let small = run(0.05);
    let large = run(0.3);
    assert!(small >= perfect);
    assert!(
        large > small,
        "more CSI error must cost more: {perfect} / {small} / {large}"
    );
}

#[test]
fn multi_pipeline_scales_and_validates_resources() {
    let cfg = LinkConfig::square(8, Modulation::Qam4, 8.0).with_frames(16);
    let c = Constellation::new(cfg.modulation);
    let (_, frames) = generate_frames(&cfg);
    let config = FpgaConfig::optimized(Modulation::Qam4, 8);
    let single = MultiPipeline::new(config.clone(), c.clone(), 1).decode_batch(&frames);
    let dual = MultiPipeline::new(config, c, 2).decode_batch(&frames);
    assert!(dual.makespan_seconds < single.makespan_seconds);
    for (a, b) in single.reports.iter().zip(dual.reports.iter()) {
        assert_eq!(a.detection.indices, b.detection.indices);
    }
}

#[test]
fn fp16_decoder_agrees_with_f64_on_easy_frames() {
    let cfg = LinkConfig::square(6, Modulation::Qam4, 14.0).with_frames(30);
    let c = Constellation::new(cfg.modulation);
    let (_, frames) = generate_frames(&cfg);
    let sd16: SphereDecoder<F16> = SphereDecoder::new(c.clone());
    let sd64: SphereDecoder<f64> = SphereDecoder::new(c);
    let agree = frames
        .iter()
        .filter(|f| sd16.detect(f).indices == sd64.detect(f).indices)
        .count();
    assert!(
        agree >= 28,
        "f16 disagreed on {} of 30 easy frames",
        30 - agree
    );
}
