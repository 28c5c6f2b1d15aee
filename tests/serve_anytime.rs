//! Anytime serving semantics end to end: with a generous deadline the
//! anytime ladder changes *nothing* — every served decision is
//! bit-identical to driving the engine directly, flagged exact — while an
//! exhausted deadline truncates deterministically with complete
//! best-so-far answers. In both regimes the quality counters close:
//! `quality_exact + budget_exhausted == served`, end to end through the
//! metrics snapshot. Predictive admission control rides the same model:
//! a request whose shard backlog is already predicted to outlast its
//! whole deadline is shed at `submit` with
//! [`RejectReason::PredictedLate`] instead of being admitted to miss.

use sd_core::{Detection, PrepScratch, Prepared, PreparedDetector, SearchWorkspace, SphereDecoder};
use sd_serve::{
    build_frame_requests, build_requests, FrameLoadConfig, LadderConfig, LoadConfig, RejectReason,
    ServeConfig, ServeRuntime, Tier, TierCostClass,
};
use sd_wireless::{Constellation, GridConfig, Modulation};
use std::collections::HashMap;
use std::time::Duration;

fn workload(deadline: Duration) -> LoadConfig {
    LoadConfig {
        n_tx: 6,
        n_rx: 6,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![4.0, 8.0, 16.0],
        n_requests: 36,
        offered_rate_hz: 0.0,
        deadline,
        seed: 0xA11F,
    }
}

fn anytime_on() -> LadderConfig {
    LadderConfig {
        enabled: true,
        kbest_k: 16,
        anytime: true,
    }
}

/// Single-tier registry: the exact anytime engine, so every request lands
/// on the decoder whose truncation semantics are under test.
fn exact_tier(c: &Constellation) -> Tier {
    Tier::new(
        "exact",
        TierCostClass::Adaptive,
        Box::new(SphereDecoder::<f64>::new(c.clone())),
    )
}

/// With a deadline far above any decode, the anytime ladder's budgets
/// never trip: every response is bit-identical — indices *and* stats — to
/// the unbudgeted engine driven directly, every quality flag is exact,
/// and the counters close.
#[test]
fn generous_deadline_anytime_serving_is_bit_identical() {
    let cfg = workload(Duration::from_secs(30));
    let c = Constellation::new(cfg.modulation);
    let det = SphereDecoder::<f64>::new(c.clone());
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let truth: Vec<Detection> = build_requests(&cfg, &c)
        .iter()
        .map(|req| {
            let mut d = Detection::default();
            det.prepare_frame_into(&req.frame, &mut scratch, &mut prep);
            let r2 = det.initial_radius_sqr(req.frame.h.rows(), req.frame.noise_variance);
            det.detect_prepared_into(&prep, r2, &mut ws, &mut d);
            d
        })
        .collect();

    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cfg.n_requests)
            .with_ladder(anytime_on()),
        vec![exact_tier(&c)],
    );
    for req in build_requests(&cfg, &c) {
        rt.submit(req).expect("queue sized for the burst");
    }
    let (snap, leftover, _) = rt.shutdown();
    assert_eq!(snap.served, cfg.n_requests as u64);
    assert_eq!(snap.quality_exact, snap.served, "no budget ever tripped");
    assert_eq!(snap.budget_exhausted, 0);
    assert_eq!(snap.quality_exact + snap.budget_exhausted, snap.served);

    let by_id: HashMap<u64, &Detection> = leftover
        .iter()
        .map(|r| (r.request.id, &r.detection))
        .collect();
    for (i, want) in truth.iter().enumerate() {
        let got = by_id[&(i as u64)];
        assert_eq!(
            got, want,
            "request {i}: anytime serving must be bit-identical when untripped"
        );
        assert!(!got.stats.quality.is_truncated());
    }
}

/// With the deadline already exhausted at pickup, the anytime budget's
/// wall-clock backstop trips at the first check: every response is
/// truncated (flagged, complete best-so-far indices), and the quality
/// counters account for every served request.
#[test]
fn exhausted_deadline_anytime_serving_truncates_and_counters_close() {
    let cfg = workload(Duration::ZERO);
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cfg.n_requests)
            .with_ladder(anytime_on())
            .paused(),
        vec![exact_tier(&c)],
    );
    for req in build_requests(&cfg, &c) {
        rt.submit(req).expect("queue sized for the burst");
    }
    let (snap, leftover, _) = rt.shutdown();
    assert_eq!(snap.served, cfg.n_requests as u64);
    assert_eq!(
        snap.budget_exhausted, snap.served,
        "every decode tripped its already-expired deadline"
    );
    assert_eq!(snap.quality_exact, 0);
    assert_eq!(snap.quality_exact + snap.budget_exhausted, snap.served);
    for resp in &leftover {
        assert!(resp.detection.stats.quality.is_truncated());
        assert_eq!(
            resp.detection.indices.len(),
            cfg.n_tx,
            "truncated responses still carry complete decisions"
        );
        assert!(resp.deadline_missed);
    }
}

/// Warm a one-worker runtime's drain-rate estimate with generous-deadline
/// traffic, freeze the worker, and offer requests whose deadline is far
/// below one predicted service time. The first lands on an empty shard
/// (predicted wait zero) and is admitted; every later one sees a backlog
/// already predicted to outlast its whole deadline and must be shed with
/// [`RejectReason::PredictedLate`] — and the shed count must surface in
/// the metrics snapshot.
#[test]
fn predictive_admission_sheds_doomed_requests() {
    let warm = workload(Duration::from_secs(30));
    let c = Constellation::new(warm.modulation);
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(2 * warm.n_requests)
            .with_ladder(anytime_on())
            .with_predictive_admission(true),
        vec![exact_tier(&c)],
    );
    // Warm-up: an empty queue predicts zero wait, so everything is
    // admitted, and each decode trains the shard's mean service rate.
    for req in build_requests(&warm, &c) {
        rt.submit(req).expect("warm-up traffic must be admitted");
    }
    for _ in 0..warm.n_requests {
        rt.collect_timeout(Duration::from_secs(30))
            .expect("warm-up response");
    }
    assert_eq!(rt.metrics().rejected_predicted, 0, "warm-up sheds nothing");

    rt.pause();
    let tight = Duration::from_nanos(1);
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for req in build_requests(&workload(tight), &c) {
        match rt.submit(req) {
            Ok(()) => admitted += 1,
            Err(rej) => {
                match rej.reason {
                    RejectReason::PredictedLate { predicted_wait } => {
                        assert!(predicted_wait > tight, "the gate's own evidence");
                    }
                    other => panic!("expected PredictedLate, got {other:?}"),
                }
                shed += 1;
            }
        }
    }
    assert_eq!(admitted, 1, "only the empty-shard request is admissible");
    assert_eq!(shed, warm.n_requests as u64 - 1);

    rt.resume();
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.rejected_predicted, shed);
    assert_eq!(snap.served, warm.n_requests as u64 + admitted);
}

/// The frame-scale variant of the admission gate: backlog is weighted by
/// subcarriers, so one admitted coherence block is enough predicted work
/// to shed the next. The frame shed bumps `rejected_predicted` by the
/// block's subcarrier count, like every other per-vector counter.
#[test]
fn predictive_admission_sheds_doomed_frames() {
    let warm = workload(Duration::from_secs(30));
    let c = Constellation::new(warm.modulation);
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(2 * warm.n_requests)
            .with_ladder(anytime_on())
            .with_predictive_admission(true),
        vec![exact_tier(&c)],
    );
    for req in build_requests(&warm, &c) {
        rt.submit(req).expect("warm-up traffic must be admitted");
    }
    for _ in 0..warm.n_requests {
        rt.collect_timeout(Duration::from_secs(30))
            .expect("warm-up response");
    }

    rt.pause();
    let frames = build_frame_requests(
        &FrameLoadConfig {
            grid: GridConfig::new(8, 2, 4, 4).with_coherence(4, 2),
            modulation: Modulation::Qam4,
            offered_rate_hz: 0.0,
            deadline: Duration::from_nanos(1),
            seed: 0xF8A3,
        },
        &c,
    );
    assert!(frames.len() >= 2, "need a block to admit and one to shed");
    let block = frames[0].block_len() as u64;
    let mut iter = frames.into_iter();
    rt.submit_frame(iter.next().unwrap())
        .expect("empty shard predicts zero wait");
    let rej = rt
        .submit_frame(iter.next().unwrap())
        .expect_err("a whole queued block must shed the next frame");
    assert!(matches!(rej.reason, RejectReason::PredictedLate { .. }));

    rt.resume();
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.rejected_predicted, block);
}

/// The reactive ladder (anytime off) never truncates — its quality
/// counters are all-exact even under a zero deadline, the control-arm
/// contract the overload benchmark compares against.
#[test]
fn reactive_ladder_never_truncates() {
    let cfg = workload(Duration::ZERO);
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cfg.n_requests)
            .with_ladder(LadderConfig {
                enabled: true,
                kbest_k: 16,
                anytime: false,
            })
            .paused(),
        c.clone(),
    );
    for req in build_requests(&cfg, &c) {
        rt.submit(req).expect("queue sized for the burst");
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.served, cfg.n_requests as u64);
    assert_eq!(snap.budget_exhausted, 0);
    assert_eq!(snap.quality_exact, snap.served);
    assert_eq!(
        snap.rejected_predicted, 0,
        "predictive admission is opt-in; the reactive arm never sheds on prediction"
    );
}
