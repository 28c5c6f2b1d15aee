//! Differential property tests: the arena-based searches with batched GEMM
//! expansion must be *observationally indistinguishable* from the seed
//! path-cloning implementations preserved in [`sd_core::reference`] —
//! identical decoded indices and identical `DetectionStats` (node counts,
//! pruning counts, flops, radii) on random frames, for all four search
//! variants and both child-evaluation strategies (the DFS also in `f32`,
//! with restarting finite radii, and on sorted-QR problems, the stock
//! exact rung's detection order).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::preprocess::{preprocess, preprocess_ordered};
use sd_core::reference::{best_first_reference, bfs_reference, dfs_reference, kbest_reference};
use sd_core::{
    BestFirstSd, BfsGemmSd, ColumnOrdering, EvalStrategy, InitialRadius, KBestSd, PreparedDetector,
    SphereDecoder,
};
use sd_math::GemmAlgo;
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};

fn make_frame(n: usize, m: Modulation, snr_db: f64, seed: u64) -> (Constellation, FrameData) {
    let c = Constellation::new(m);
    let sigma2 = noise_variance(snr_db, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let f = FrameData::generate(n, n, &c, sigma2, &mut rng);
    (c, f)
}

/// Infinite, or finite enough to force restarts now and then.
fn initial_radius() -> impl Strategy<Value = InitialRadius> {
    prop_oneof![
        Just(InitialRadius::Infinite),
        Just(InitialRadius::ScaledNoise(0.05)),
        Just(InitialRadius::ScaledNoise(0.5)),
    ]
}

/// The DFS engine against the seed recursion at precision `F`, on the
/// problem prepared in the paper's natural order and on the sorted-QR one
/// the stock exact rung serves: both evaluation strategies, identical
/// indices and `DetectionStats`.
fn dfs_agrees<F: sd_math::Float>(
    c: &Constellation,
    frame: &FrameData,
    radius: InitialRadius,
    sort: bool,
) -> Result<(), TestCaseError> {
    let r2 = radius.resolve(frame.h.rows(), frame.noise_variance);
    for ordering in [ColumnOrdering::Natural, ColumnOrdering::Sorted] {
        let prep = preprocess_ordered::<F>(frame, c, ordering);
        for eval in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            let arena = SphereDecoder::<F>::new(c.clone())
                .with_sorted_children(sort)
                .with_eval(eval)
                .with_ordering(ordering)
                .detect_prepared(&prep, r2);
            let seed_impl = dfs_reference(&prep, r2, eval, sort);
            prop_assert_eq!(&arena.indices, &seed_impl.indices);
            prop_assert_eq!(&arena.stats, &seed_impl.stats);
        }
    }
    Ok(())
}

fn modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qam4),
        Just(Modulation::Qam16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sorted and plain DFS, both eval strategies, both precisions, with
    /// a finite radius sometimes forcing restarts.
    #[test]
    fn dfs_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        sort in any::<bool>(),
        radius in initial_radius(),
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        dfs_agrees::<f64>(&c, &frame, radius, sort)?;
        dfs_agrees::<f32>(&c, &frame, radius, sort)?;
    }

    /// The served shape: QAM4 at 8–10 antennas (`iid8`, `grid8_*`), where
    /// the 4-lane kernel runs at every level of the tree.
    #[test]
    fn dfs_matches_reference_at_served_shape(
        n in 8usize..11,
        snr_db in 4.0f64..20.0,
        seed in any::<u64>(),
        sort in any::<bool>(),
        radius in initial_radius(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        dfs_agrees::<f64>(&c, &frame, radius, sort)?;
        dfs_agrees::<f32>(&c, &frame, radius, sort)?;
    }

    /// Globally best-first, both eval strategies, with a finite radius
    /// sometimes forcing restarts.
    #[test]
    fn best_first_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        tight in any::<bool>(),
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let r2 = if tight {
            InitialRadius::ScaledNoise(0.5).resolve(frame.h.rows(), frame.noise_variance)
        } else {
            f64::INFINITY
        };
        for eval in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            let arena = BestFirstSd::<f64>::new(c.clone())
                .with_eval(eval)
                .detect_prepared(&prep, r2);
            let seed_impl = best_first_reference(&prep, r2, eval);
            prop_assert_eq!(&arena.indices, &seed_impl.indices);
            prop_assert_eq!(&arena.stats, &seed_impl.stats);
        }
    }

    /// Level-synchronous BFS: the single batched GEMM per level (all three
    /// kernels) against the seed's per-node scalar evaluation, including
    /// frontier-cap truncation.
    #[test]
    fn bfs_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        cap in prop_oneof![Just(4usize), Just(32), Just(1 << 20)],
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let r2 = InitialRadius::ScaledNoise(2.0).resolve(frame.h.rows(), frame.noise_variance);
        let seed_impl = bfs_reference(&prep, r2, cap);
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Parallel] {
            let arena = BfsGemmSd::<f64>::new(c.clone())
                .with_max_frontier(cap)
                .with_batch_algo(algo)
                .detect_prepared_traced(&prep, r2)
                .0;
            prop_assert_eq!(&arena.indices, &seed_impl.indices);
            prop_assert_eq!(&arena.stats, &seed_impl.stats);
        }
    }

    /// K-best sweep, with K sometimes truncating and sometimes covering
    /// whole levels.
    #[test]
    fn kbest_matches_reference(
        n in 2usize..7,
        m in modulation(),
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        k in prop_oneof![Just(2usize), Just(8), Just(64)],
    ) {
        prop_assume!(m.order().pow(n as u32) <= 1 << 14);
        let (c, frame) = make_frame(n, m, snr_db, seed);
        let prep = preprocess::<f64>(&frame, &c);
        let arena = KBestSd::<f64>::new(c.clone(), k).detect_prepared(&prep, f64::INFINITY);
        let seed_impl = kbest_reference(&prep, k);
        prop_assert_eq!(&arena.indices, &seed_impl.indices);
        prop_assert_eq!(&arena.stats, &seed_impl.stats);
    }
}
