//! Exactness and determinism of the subtree-parallel sphere decoder.
//!
//! The parallel engine's contract is *metric bit-identity* with the
//! sequential [`SphereDecoder`]: both decoders accumulate the winning
//! leaf's metric as the same ordered `pd + increment` chain, so the
//! returned solution (indices and `final_radius_sqr` bits) must match no
//! matter how pruning interleaves across workers. Node counts are
//! timing-dependent and deliberately NOT asserted — only the answer is.
//!
//! The stress test re-decodes the same frames many times under full
//! hardware parallelism and fails on the first run-to-run divergence;
//! `ci.sh` runs it with `SD_STRESS_ITERS=200` as the multi-thread
//! determinism gate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{ColumnOrdering, Detector, InitialRadius, ParallelSphereDecoder, SphereDecoder};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};

fn make_frame(n: usize, m: Modulation, snr_db: f64, seed: u64) -> (Constellation, FrameData) {
    let c = Constellation::new(m);
    let sigma2 = noise_variance(snr_db, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let f = FrameData::generate(n, n, &c, sigma2, &mut rng);
    (c, f)
}

/// The paper's natural order, or the sorted QR of the stock exact rung.
fn ordering() -> impl Strategy<Value = ColumnOrdering> {
    prop_oneof![Just(ColumnOrdering::Natural), Just(ColumnOrdering::Sorted)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across random sizes / SNRs / seeds / worker counts, the parallel
    /// decoder's solution is bit-identical to the sequential one (f64).
    #[test]
    fn parallel_metric_is_bit_identical_to_sequential_f64(
        n in 2usize..7,
        snr_db in 2.0f64..20.0,
        seed in any::<u64>(),
        workers in 2usize..6,
        ordering in ordering(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, snr_db, seed);
        let seq = SphereDecoder::<f64>::new(c.clone())
            .with_ordering(ordering)
            .detect(&frame);
        let par = ParallelSphereDecoder::<f64>::new(c)
            .with_workers(workers)
            .with_ordering(ordering)
            .detect(&frame);
        prop_assert_eq!(&par.indices, &seq.indices);
        prop_assert_eq!(
            par.stats.final_radius_sqr.to_bits(),
            seq.stats.final_radius_sqr.to_bits()
        );
    }

    /// Same contract at f32 working precision (the FPGA-native precision).
    #[test]
    fn parallel_metric_is_bit_identical_to_sequential_f32(
        n in 2usize..6,
        snr_db in 4.0f64..20.0,
        seed in any::<u64>(),
        ordering in ordering(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam16, snr_db, seed);
        let seq = SphereDecoder::<f32>::new(c.clone())
            .with_ordering(ordering)
            .detect(&frame);
        let par = ParallelSphereDecoder::<f32>::new(c)
            .with_ordering(ordering)
            .detect(&frame);
        prop_assert_eq!(&par.indices, &seq.indices);
        prop_assert_eq!(
            par.stats.final_radius_sqr.to_bits(),
            seq.stats.final_radius_sqr.to_bits()
        );
    }

    /// Finite initial radii (restart path) preserve the contract.
    #[test]
    fn parallel_restarts_are_bit_identical_to_sequential(
        n in 2usize..6,
        seed in any::<u64>(),
        ordering in ordering(),
    ) {
        let (c, frame) = make_frame(n, Modulation::Qam4, 4.0, seed);
        let radius = InitialRadius::ScaledNoise(0.05);
        let seq = SphereDecoder::<f64>::new(c.clone())
            .with_initial_radius(radius)
            .with_ordering(ordering)
            .detect(&frame);
        let par = ParallelSphereDecoder::<f64>::new(c)
            .with_initial_radius(radius)
            .with_ordering(ordering)
            .detect(&frame);
        prop_assert_eq!(&par.indices, &seq.indices);
        prop_assert_eq!(
            par.stats.final_radius_sqr.to_bits(),
            seq.stats.final_radius_sqr.to_bits()
        );
    }
}

/// Fixed-seed anchor: a deterministic grid of shapes, SNRs and detection
/// orders, so a regression reproduces identically everywhere.
#[test]
fn fixed_seed_grid_matches_sequential() {
    for (n, modulation, snr_db, seed) in [
        (4, Modulation::Qam4, 6.0, 1u64),
        (8, Modulation::Qam4, 10.0, 2),
        (6, Modulation::Qam16, 14.0, 3),
        (3, Modulation::Qam16, 8.0, 4),
        (5, Modulation::Bpsk, 4.0, 5),
    ] {
        let (c, frame) = make_frame(n, modulation, snr_db, seed);
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::Sorted] {
            let seq = SphereDecoder::<f64>::new(c.clone())
                .with_ordering(ordering)
                .detect(&frame);
            for workers in [2, 3, 4, 8] {
                let par = ParallelSphereDecoder::<f64>::new(c.clone())
                    .with_workers(workers)
                    .with_ordering(ordering)
                    .detect(&frame);
                assert_eq!(
                    par.indices, seq.indices,
                    "{n}x{n} {modulation:?} {ordering:?} w={workers}"
                );
                assert_eq!(
                    par.stats.final_radius_sqr.to_bits(),
                    seq.stats.final_radius_sqr.to_bits(),
                    "{n}x{n} {modulation:?} {ordering:?} w={workers}: metric bits diverge"
                );
            }
        }
    }
}

/// One worker short-circuits to the sequential code path: the whole
/// [`Detection`] — indices AND every statistic — is bit-identical, in
/// either detection order.
#[test]
fn one_worker_detection_is_fully_bit_identical() {
    for seed in 10..20u64 {
        let (c, frame) = make_frame(6, Modulation::Qam16, 12.0, seed);
        for ordering in [ColumnOrdering::Natural, ColumnOrdering::Sorted] {
            let seq = SphereDecoder::<f64>::new(c.clone())
                .with_ordering(ordering)
                .detect(&frame);
            let par = ParallelSphereDecoder::<f64>::new(c.clone())
                .with_workers(1)
                .with_ordering(ordering)
                .detect(&frame);
            assert_eq!(
                par, seq,
                "{ordering:?}: 1-worker path must be the sequential decode"
            );
        }
    }
}

/// Split depths at and beyond the tree height are clamped, and subtree
/// counts below the worker count (idle workers) stay exact.
#[test]
fn degenerate_split_configurations_stay_exact() {
    let (c, frame) = make_frame(4, Modulation::Qam4, 8.0, 77);
    let seq = SphereDecoder::<f64>::new(c.clone()).detect(&frame);
    for split in [1, 2, 3, 4, 100] {
        for workers in [2, 16] {
            let par = ParallelSphereDecoder::<f64>::new(c.clone())
                .with_workers(workers)
                .with_split_levels(split)
                .detect(&frame);
            assert_eq!(par.indices, seq.indices, "split={split} workers={workers}");
            assert_eq!(
                par.stats.final_radius_sqr.to_bits(),
                seq.stats.final_radius_sqr.to_bits()
            );
        }
    }
}

/// Determinism under real hardware parallelism: decode the same frames
/// repeatedly at `available_parallelism()` workers; every repetition must
/// return the same indices and the same metric bits as the sequential
/// reference. `SD_STRESS_ITERS` scales the iteration count (ci.sh gates
/// at 200; the default keeps `cargo test` fast).
#[test]
fn repeated_parallel_decodes_are_deterministic() {
    let iters: usize = std::env::var("SD_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let frames: Vec<(Constellation, FrameData)> = (0..4)
        .map(|i| make_frame(8, Modulation::Qam4, 10.0 + i as f64, 0xD0_0D + i as u64))
        .collect();
    let references: Vec<_> = frames
        .iter()
        .map(|(c, f)| SphereDecoder::<f64>::new(c.clone()).detect(f))
        .collect();
    let decoders: Vec<_> = frames
        .iter()
        .map(|(c, _)| ParallelSphereDecoder::<f64>::new(c.clone()))
        .collect();
    for iter in 0..iters {
        for ((decoder, (_, frame)), reference) in decoders.iter().zip(&frames).zip(&references) {
            let d = decoder.detect(frame);
            assert_eq!(
                d.indices, reference.indices,
                "iteration {iter}: indices diverged from sequential"
            );
            assert_eq!(
                d.stats.final_radius_sqr.to_bits(),
                reference.stats.final_radius_sqr.to_bits(),
                "iteration {iter}: metric bits diverged"
            );
        }
    }
}
