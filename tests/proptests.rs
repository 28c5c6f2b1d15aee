//! Cross-crate property-based tests: the decoder invariants the whole
//! reproduction rests on.

use mimo_sd::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::preprocess;

/// Generate a random frame from (size, snr, seed) parameters.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every exact decoder returns the global metric minimizer.
    #[test]
    fn sphere_decoders_are_ml_exact(
        n in 2usize..5,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
    ) {
        // Keep the exhaustive oracle tractable: P^M ≤ 16^4.
        prop_assume!(m.order().pow(n as u32) <= 1 << 16);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let truth = MlDetector::new(c.clone()).detect(&frame);
        let dfs = SphereDecoder::<f64>::new(c.clone()).detect(&frame);
        prop_assert_eq!(&dfs.indices, &truth.indices);
        let bf = BestFirstSd::<f64>::new(c.clone()).detect(&frame);
        prop_assert_eq!(&bf.indices, &truth.indices);
        let bfs = BfsGemmSd::<f64>::new(c.clone()).detect(&frame);
        prop_assert_eq!(&bfs.indices, &truth.indices);
        let mp = SubtreeParallelSd::<f64>::new(c).detect(&frame);
        prop_assert_eq!(&mp.indices, &truth.indices);
    }

    /// The reported radius equals the metric of the returned solution and
    /// lower-bounds every other hypothesis (spot-checked).
    #[test]
    fn final_radius_is_solution_metric(
        n in 2usize..7,
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        probes in proptest::collection::vec(0usize..4, 8),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let d = SphereDecoder::<f64>::new(c).detect(&frame);
        let metric = prep.full_metric(&d.indices) - prep.tail_energy;
        prop_assert!((metric - d.stats.final_radius_sqr).abs() < 1e-8);
        // Random competitor hypotheses can't do better.
        let mut competitor = vec![0usize; n];
        for (i, &p) in probes.iter().take(n).enumerate() {
            competitor[i] = p;
        }
        let other = prep.full_metric(&competitor) - prep.tail_energy;
        prop_assert!(other >= d.stats.final_radius_sqr - 1e-9);
    }

    /// FPGA pipeline ≡ software at f32, for arbitrary operating points.
    #[test]
    fn fpga_model_equals_software(
        n in 2usize..8,
        snr_db in 2.0f64..24.0,
        seed in any::<u64>(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        let hw = FpgaSphereDecoder::new(FpgaConfig::optimized(Modulation::Qam4, n), c.clone());
        let sw = SphereDecoder::<f32>::new(c);
        let a = hw.detect(&frame);
        let b = sw.detect(&frame);
        prop_assert_eq!(a.indices, b.indices);
        prop_assert_eq!(a.stats.nodes_expanded, b.stats.nodes_expanded);
    }

    /// Noiseless frames decode perfectly at any size/modulation.
    #[test]
    fn noiseless_decodes_are_perfect(
        n in 1usize..9,
        m in modulation(),
        seed in any::<u64>(),
    ) {
        let c = Constellation::new(m);
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = FrameData::generate(n, n, &c, 1e-12, &mut rng);
        let d = SphereDecoder::<f32>::new(c).detect(&frame);
        prop_assert_eq!(d.indices, frame.tx.indices);
    }

    /// Bit counting is consistent: errors ≤ bits, and symbol errors bound
    /// bit errors from both sides.
    #[test]
    fn error_counting_invariants(
        n in 1usize..8,
        m in modulation(),
        snr_db in 0.0f64..20.0,
        seed in any::<u64>(),
        guess_seed in any::<u64>(),
    ) {
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let mut rng = StdRng::seed_from_u64(guess_seed);
        use rand::Rng;
        let guess: Vec<usize> = (0..n).map(|_| rng.gen_range(0..c.order())).collect();
        let be = frame.bit_errors(&guess, &c);
        let se = frame.symbol_errors(&guess);
        prop_assert!(se <= n as u64);
        prop_assert!(be <= (n * c.bits_per_symbol()) as u64);
        // Each wrong symbol contributes ≥1 and ≤bits_per_symbol bit errors.
        prop_assert!(be >= se);
        prop_assert!(be <= se * c.bits_per_symbol() as u64);
    }

    /// Every extension decoder that claims exactness is exact, and the
    /// approximate ones never beat ML.
    #[test]
    fn extension_decoders_respect_ml(
        n in 2usize..5,
        snr_db in 2.0f64..18.0,
        seed in any::<u64>(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let truth = MlDetector::new(c.clone()).detect(&frame);
        let opt_metric = prep.full_metric(&truth.indices);

        // Exact: soft decoder's hard decision, ordered DFS, full-width K-best.
        let soft = SoftSphereDecoder::<f64>::new(c.clone()).detect_soft(&frame);
        prop_assert_eq!(&soft.detection.indices, &truth.indices);
        let ordered = SphereDecoder::<f64>::new(c.clone())
            .with_ordering(ColumnOrdering::NormDescending)
            .detect(&frame);
        prop_assert_eq!(&ordered.indices, &truth.indices);
        let kb_full = KBestSd::<f64>::new(c.clone(), 4usize.pow(n as u32)).detect(&frame);
        prop_assert_eq!(&kb_full.indices, &truth.indices);

        // Approximate: K-best with small K can't find a better metric
        // than the optimum.
        let kb_small = KBestSd::<f64>::new(c, 2).detect(&frame);
        let small_metric = prep.full_metric(&kb_small.indices);
        prop_assert!(small_metric >= opt_metric - 1e-9);
    }

    /// LLR signs always agree with the hard ML bits.
    #[test]
    fn soft_llr_signs_consistent(
        n in 2usize..6,
        snr_db in 4.0f64..20.0,
        seed in any::<u64>(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        let soft = SoftSphereDecoder::<f64>::new(c.clone()).detect_soft(&frame);
        let bits: Vec<u8> = soft
            .detection
            .indices
            .iter()
            .flat_map(|&i| c.index_to_bits(i))
            .collect();
        prop_assert_eq!(soft.hard_bits(), bits);
    }

    /// The Eq. 4 metric identity wired through the full stack: for any
    /// hypothesis, preprocessing preserves the ML objective.
    #[test]
    fn metric_identity_via_preprocessing(
        n in 2usize..7,
        seed in any::<u64>(),
        hyp in proptest::collection::vec(0usize..16, 7),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam16, 10.0, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let indices: Vec<usize> = hyp.into_iter().take(n).collect();
        prop_assume!(indices.len() == n);
        let s: Vec<C64> = indices.iter().map(|&i| c.point(i)).collect();
        let hs = frame.h.mul_vec(&s);
        let direct = sd_math::vector::dist_sqr(&frame.y, &hs);
        let reduced = prep.full_metric(&indices);
        prop_assert!((direct - reduced).abs() < 1e-8 * (1.0 + direct));
    }

    /// The serve cost model stays total under arbitrary observation
    /// streams — including hostile SNRs, zero node counts, and 0-ns
    /// timings: no prediction is ever NaN or negative, for any cost
    /// class, at any query point.
    #[test]
    fn cost_model_predictions_are_total(
        observations in proptest::collection::vec(
            ((0usize..3, 0usize..3, -50.0f64..80.0),
             (any::<bool>(), 0.0f64..80.0, 0u64..100_000, 0u64..10_000_000)),
            1..64,
        ),
        query_snr in -50.0f64..80.0,
    ) {
        use sd_serve::{CostModel, TierCostClass};
        let classes = [
            TierCostClass::Adaptive,
            TierCostClass::fixed_kbest(16),
            TierCostClass::Linear,
        ];
        let model = CostModel::new(3);
        for ((tier, class, snr), (has_cond, cond, nodes, ns)) in observations {
            let cond = has_cond.then_some(cond);
            model.observe(tier, &classes[class], snr, cond, nodes, ns);
        }
        for (i, class) in classes.iter().enumerate() {
            for cond in [None, Some(0.0), Some(3.0), Some(64.0)] {
                let p = model.predict_ns(i, class, query_snr, cond, 8, 4);
                prop_assert!(p.is_finite() && p >= 0.0,
                    "tier {i} predicted {p} at snr {query_snr}, cond {cond:?}");
            }
        }
        prop_assert!(model.ns_per_node().is_finite() && model.ns_per_node() >= 0.0);
    }

    /// Ladder monotonicity through arbitrary trained models: growing the
    /// remaining budget never selects a *less* accurate (higher-index)
    /// tier — the predictive admission contract.
    #[test]
    fn choose_tier_is_monotone_in_remaining_budget(
        observations in proptest::collection::vec(
            (-10.0f64..40.0, 1u64..200_000, 1u64..10_000_000),
            0..32,
        ),
        snr in -10.0f64..40.0,
        budgets_us in proptest::collection::vec(0u64..100_000, 2..12),
    ) {
        use sd_serve::{choose_tier, default_registry, CostModel, LadderConfig, TierCostClass};
        use std::time::Duration;
        let cfg = LadderConfig::default();
        let c = Constellation::new(Modulation::Qam4);
        let tiers = default_registry(&c, &cfg);
        let model = CostModel::new(tiers.len());
        for (obs_snr, nodes, ns) in observations {
            model.observe(0, &TierCostClass::Adaptive, obs_snr, None, nodes, ns);
        }
        let mut sorted = budgets_us;
        sorted.sort_unstable();
        let mut prev_tier = usize::MAX;
        for us in sorted {
            let t = choose_tier(&cfg, &model, &tiers, snr, None, 8, 4, Duration::from_micros(us), 1).tier;
            prop_assert!(
                prev_tier == usize::MAX || t <= prev_tier,
                "budget {us} µs picked tier {t} after a smaller budget picked {prev_tier}"
            );
            prev_tier = t;
        }
    }
}
