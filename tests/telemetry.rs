//! Telemetry reconciliation: the [`SearchTelemetry`] recorder installed on
//! a [`SearchWorkspace`] must agree *exactly* with the engine-maintained
//! [`DetectionStats`] for every decoder, and the per-level identity
//! `generated == accepted + pruned` must hold level by level.
//!
//! These tests pin the tentpole contract of the observability layer: one
//! uniform event stream across the whole engine zoo, reconciling with the
//! counters the decoders have always kept — no drift, no double counting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{
    BestFirstSd, BfsGemmSd, DecodeBudget, Detection, EvalStrategy, FixedComplexitySd,
    InitialRadius, KBestSd, MetricKind, ParallelSphereDecoder, Phase, PreparedDetector,
    QuantizedFsd, QuantizedKBestSd, SearchWorkspace, SphereDecoder,
};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};

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

/// Decode every frame with telemetry installed and assert the recorder
/// reconciles with `DetectionStats` exactly.
fn assert_reconciles(det: &dyn PreparedDetector<f64>, frames: &[FrameData], name: &str) {
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    for f in frames {
        let d = det.detect_frame_in(f, &mut ws);
        let t = ws.telemetry().expect("telemetry stays installed");
        assert_eq!(
            t.nodes_generated(),
            d.stats.nodes_generated,
            "{name}: telemetry generated != stats"
        );
        assert!(
            t.per_level_identity_holds(),
            "{name}: generated != accepted + pruned on some level"
        );
        for (lvl, l) in t.levels().iter().enumerate() {
            assert_eq!(
                l.generated, d.stats.per_level_generated[lvl],
                "{name}: level {lvl} generated mismatch"
            );
        }
        assert_eq!(
            t.nodes_accepted() + t.nodes_pruned(),
            d.stats.nodes_generated,
            "{name}: totals must split generated"
        );
    }
}

#[test]
fn exact_dfs_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 900);
    assert_reconciles(&SphereDecoder::<f64>::new(c), &frames, "sorted-DFS");
}

#[test]
fn unsorted_dfs_reconciles_with_stats() {
    let (c, frames) = frames(5, Modulation::Qam4, 8.0, 10, 901);
    assert_reconciles(
        &SphereDecoder::<f64>::new(c).with_sorted_children(false),
        &frames,
        "plain DFS",
    );
}

#[test]
fn dfs_with_restarts_reconciles_with_stats() {
    // A tiny initial radius forces restarts; telemetry accumulates across
    // them exactly like DetectionStats does.
    let (c, frames) = frames(4, Modulation::Qam4, 4.0, 15, 902);
    assert_reconciles(
        &SphereDecoder::<f64>::new(c).with_initial_radius(InitialRadius::ScaledNoise(0.01)),
        &frames,
        "DFS restarts",
    );
}

#[test]
fn best_first_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 903);
    assert_reconciles(&BestFirstSd::<f64>::new(c), &frames, "best-first");
}

#[test]
fn kbest_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 904);
    assert_reconciles(&KBestSd::<f64>::new(c, 8), &frames, "K-best");
}

#[test]
fn bfs_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 905);
    assert_reconciles(&BfsGemmSd::<f64>::new(c), &frames, "BFS-GEMM");
}

#[test]
fn bfs_with_clipping_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 4.0, 10, 906);
    assert_reconciles(
        &BfsGemmSd::<f64>::new(c).with_max_frontier(3),
        &frames,
        "BFS clipped",
    );
}

#[test]
fn fsd_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 907);
    assert_reconciles(
        &FixedComplexitySd::<f64>::new(c).with_full_expansion(2),
        &frames,
        "FSD",
    );
}

#[test]
fn quantized_kbest_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 915);
    for metric in [MetricKind::L2, MetricKind::LInf] {
        assert_reconciles(
            &QuantizedKBestSd::new(c.clone(), 8).with_metric(metric),
            &frames,
            "fixed-point K-best",
        );
    }
}

#[test]
fn quantized_fsd_reconciles_with_stats() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 15, 916);
    for metric in [MetricKind::L2, MetricKind::LInf] {
        assert_reconciles(
            &QuantizedFsd::new(c.clone())
                .with_full_expansion_levels(2)
                .with_metric(metric),
            &frames,
            "fixed-point FSD",
        );
    }
}

#[test]
fn parallel_dfs_reconciles_with_stats() {
    // Per-worker telemetry is recorded locally and replayed into the
    // caller's sink after the join; the merged stream must reconcile with
    // the merged DetectionStats exactly, level by level.
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 912);
    assert_reconciles(
        &ParallelSphereDecoder::<f64>::new(c).with_workers(4),
        &frames,
        "subtree-parallel DFS",
    );
}

#[test]
fn parallel_dfs_with_restarts_reconciles_with_stats() {
    let (c, frames) = frames(4, Modulation::Qam4, 4.0, 10, 913);
    assert_reconciles(
        &ParallelSphereDecoder::<f64>::new(c)
            .with_workers(3)
            .with_initial_radius(InitialRadius::ScaledNoise(0.01)),
        &frames,
        "parallel restarts",
    );
}

/// Installing a recorder changes nothing about the decode: the traced and
/// untraced monomorphizations of the depth-first loop return the same
/// `Detection` — indices, every stats field, metric bits — sorted and
/// plain, both evaluation strategies, with restarts and with budgets
/// that trip (including the greedy completion of a zero budget). The
/// fixed-point K-best and FSD sweeps, in both metrics, hold to the same.
#[test]
fn traced_decode_equals_untraced() {
    let (c, frames) = frames(6, Modulation::Qam4, 6.0, 12, 914);
    let restarts = InitialRadius::ScaledNoise(0.05);
    let mut dets: Vec<(String, Box<dyn PreparedDetector<f64>>)> = Vec::new();
    for sort in [true, false] {
        for eval in [EvalStrategy::Gemm, EvalStrategy::Incremental] {
            for radius in [InitialRadius::Infinite, restarts] {
                let sd = SphereDecoder::<f64>::new(c.clone())
                    .with_sorted_children(sort)
                    .with_eval(eval)
                    .with_initial_radius(radius);
                dets.push((format!("sort={sort} {eval:?} {radius:?}"), Box::new(sd)));
            }
        }
    }
    dets.push((
        "one-worker subtree-parallel".into(),
        Box::new(
            ParallelSphereDecoder::<f64>::new(c.clone())
                .with_workers(1)
                .with_initial_radius(restarts),
        ),
    ));
    for metric in [MetricKind::L2, MetricKind::LInf] {
        dets.push((
            format!("fixed-point K-best {metric:?}"),
            Box::new(QuantizedKBestSd::new(c.clone(), 8).with_metric(metric)),
        ));
        dets.push((
            format!("fixed-point FSD {metric:?}"),
            Box::new(
                QuantizedFsd::new(c.clone())
                    .with_full_expansion_levels(2)
                    .with_metric(metric),
            ),
        ));
    }
    let mut plain_ws = SearchWorkspace::new();
    let mut traced_ws = SearchWorkspace::new();
    traced_ws.install_telemetry();
    let (mut plain, mut traced) = (Detection::default(), Detection::default());
    for (name, det) in &dets {
        let (mut restarted, mut truncated) = (false, false);
        for budget in [
            DecodeBudget::UNLIMITED,
            DecodeBudget::nodes(40),
            DecodeBudget::nodes(0),
        ] {
            for f in &frames {
                let prep = det.prepare_frame(f);
                let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
                det.detect_prepared_budgeted_into(&prep, r2, &budget, &mut plain_ws, &mut plain);
                det.detect_prepared_budgeted_into(&prep, r2, &budget, &mut traced_ws, &mut traced);
                assert_eq!(traced, plain, "{name}, {budget:?}");
                assert_eq!(
                    traced.stats.final_radius_sqr.to_bits(),
                    plain.stats.final_radius_sqr.to_bits(),
                    "{name}, {budget:?}: metric bits"
                );
                restarted |= plain.stats.restarts > 0;
                truncated |= plain.stats.quality.is_truncated();
            }
        }
        assert!(truncated, "{name}: the budgets must trip");
        assert!(
            restarted || !name.contains("ScaledNoise"),
            "{name}: the finite radius must force a restart"
        );
    }
}

#[test]
fn telemetry_resets_between_decodes() {
    let (c, frames) = frames(5, Modulation::Qam4, 8.0, 4, 908);
    let sd = SphereDecoder::<f64>::new(c);
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    for f in &frames {
        let d = sd.detect_frame_in(f, &mut ws);
        // Per decode, not accumulated across frames.
        assert_eq!(
            ws.telemetry().unwrap().nodes_generated(),
            d.stats.nodes_generated
        );
    }
}

#[test]
fn phase_profile_covers_the_decode() {
    let (c, frames) = frames(6, Modulation::Qam4, 8.0, 3, 909);
    let sd = SphereDecoder::<f64>::new(c);
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    for f in &frames {
        sd.detect_frame_in(f, &mut ws);
        let phases = ws.telemetry().unwrap().phases;
        assert!(phases.total() > 0, "spans must record time");
        assert!(
            phases.get(Phase::Expand) > 0,
            "child evaluation must be timed"
        );
        assert!(
            phases.get(Phase::Prepare) > 0,
            "frame preprocessing must be timed"
        );
        let frac: f64 = [Phase::Prepare, Phase::Expand, Phase::Sort, Phase::Leaf]
            .iter()
            .map(|&p| phases.fraction(p))
            .sum();
        assert!((frac - 1.0).abs() < 1e-9);
    }
}

#[test]
fn bfs_engine_telemetry_matches_legacy_trace() {
    // The per-level survivor counts reported through the generic sink must
    // agree with the legacy BfsLevelTrace the GPU model consumes.
    let (c, frames) = frames(6, Modulation::Qam4, 10.0, 8, 910);
    let bfs = BfsGemmSd::<f64>::new(c);
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    for f in &frames {
        let (_, legacy) = bfs.detect_traced(f);
        let d = bfs.detect_frame_in(f, &mut ws);
        let t = ws.telemetry().unwrap();
        assert_eq!(t.levels().len(), legacy.levels.len());
        for (lvl, (tele, leg)) in t.levels().iter().zip(legacy.levels.iter()).enumerate() {
            assert_eq!(
                tele.generated, leg.children as u64,
                "level {lvl} children disagree"
            );
            assert_eq!(
                tele.accepted, leg.survivors as u64,
                "level {lvl} survivors disagree"
            );
        }
        assert_eq!(t.nodes_generated(), d.stats.nodes_generated);
    }
}

#[test]
fn uninstalled_workspace_records_nothing() {
    let (c, frames) = frames(5, Modulation::Qam4, 8.0, 2, 911);
    let sd = SphereDecoder::<f64>::new(c);
    let mut ws = SearchWorkspace::new();
    assert!(!ws.trace_enabled());
    sd.detect_frame_in(&frames[0], &mut ws);
    assert!(ws.telemetry().is_none());
    // Install, decode, then take it back out: tracing is disabled again.
    ws.install_telemetry();
    sd.detect_frame_in(&frames[1], &mut ws);
    let sink = ws.take_trace().expect("sink comes back out");
    assert!(sink
        .as_any()
        .downcast_ref::<sd_core::SearchTelemetry>()
        .is_some());
    assert!(!ws.trace_enabled());
}
