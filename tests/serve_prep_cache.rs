//! Channel-coherent preparation caching in the serving layer.
//!
//! Requests within a coherence block share one channel matrix `H`; the
//! worker's [`sd_serve::PrepCache`] computes the QR/ordering half of
//! preparation once per block and replays it from cache for the rest.
//! The cache is an *optimization with a bit-identity contract*: served
//! decisions (indices and every statistic) must match the uncached
//! runtime exactly, and every served request must be counted as exactly
//! one of cache hit / miss / bypass.

use sd_core::{Detection, PrepScratch, Prepared, PreparedDetector, SearchWorkspace};
use sd_serve::{
    build_coherent_requests, build_requests, default_registry, DetectionRequest, LadderConfig,
    LoadConfig, MetricsSnapshot, ServeConfig, ServeRuntime, Tier,
};
use sd_wireless::{Constellation, Modulation, REAL_TIME_BUDGET};
use std::collections::HashMap;

fn workload() -> LoadConfig {
    LoadConfig {
        n_tx: 6,
        n_rx: 6,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![4.0, 8.0, 16.0],
        n_requests: 45,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0xC0_4E7E,
    }
}

/// Serve `reqs` through a single exact-SD tier (1 worker, ladder off) with
/// the given prep-cache capacity; return detections by id plus the final
/// metrics snapshot.
fn serve_all(
    reqs: Vec<DetectionRequest>,
    c: &Constellation,
    cache_capacity: usize,
    registry: Option<Vec<Tier>>,
) -> (HashMap<u64, Detection>, MetricsSnapshot) {
    let n = reqs.len();
    let tiers = registry.unwrap_or_else(|| {
        let mut t = default_registry(c, &LadderConfig::default());
        t.truncate(1); // exact SD only
        t
    });
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(n)
            .with_prep_cache(cache_capacity)
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            }),
        tiers,
    );
    for req in reqs {
        rt.submit(req).expect("queue sized for the whole stream");
    }
    let mut served = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_timeout(std::time::Duration::from_secs(10))
            .expect("runtime stalled");
        served.insert(resp.request.id, resp.detection);
    }
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(snap.served, n as u64);
    (served, snap)
}

/// Ground truth: drive the tier's engine directly on the same requests.
fn direct_decodes(
    detector: &dyn PreparedDetector<f64>,
    reqs: &[DetectionRequest],
) -> HashMap<u64, Detection> {
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    reqs.iter()
        .map(|req| {
            let mut det = Detection::default();
            detector.prepare_frame_into(&req.frame, &mut scratch, &mut prep);
            let r2 = detector.initial_radius_sqr(req.frame.h.rows(), req.frame.noise_variance);
            detector.detect_prepared_into(&prep, r2, &mut ws, &mut det);
            (req.id, det)
        })
        .collect()
}

fn assert_same_detections(a: &HashMap<u64, Detection>, b: &HashMap<u64, Detection>, what: &str) {
    assert_eq!(a.len(), b.len());
    for (id, da) in a {
        let db = &b[id];
        assert_eq!(
            da.indices, db.indices,
            "{what}: request {id} decisions differ"
        );
        assert_eq!(da.stats, db.stats, "{what}: request {id} statistics differ");
        assert_eq!(
            da.stats.final_radius_sqr.to_bits(),
            db.stats.final_radius_sqr.to_bits(),
            "{what}: request {id} metric differs in bits"
        );
    }
}

/// Cached and uncached serving are bit-identical on a coherent workload,
/// both match the direct-decode ground truth, and the hit/miss/bypass
/// counters reconcile exactly with the block structure.
#[test]
fn cached_serving_is_bit_identical_and_counters_reconcile() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    const BLOCK: usize = 9;
    let reqs = build_coherent_requests(&cfg, BLOCK, &c);
    let n = reqs.len() as u64;
    let blocks = reqs.len().div_ceil(BLOCK) as u64;

    let tier = {
        let mut t = default_registry(&c, &LadderConfig::default());
        t.truncate(1);
        t.remove(0)
    };
    let truth = direct_decodes(&*tier.detector, &reqs);

    let (cached, snap_on) = serve_all(build_coherent_requests(&cfg, BLOCK, &c), &c, 8, None);
    let (uncached, snap_off) = serve_all(reqs, &c, 0, None);

    assert_same_detections(&cached, &truth, "cached vs direct");
    assert_same_detections(&uncached, &truth, "uncached vs direct");
    assert_same_detections(&cached, &uncached, "cached vs uncached");

    // Cache on: one miss per coherence block (capacity 8 ≥ blocks, so no
    // eviction churn), hits for every other request, no bypass.
    assert_eq!(snap_on.prep_cache_misses, blocks);
    assert_eq!(snap_on.prep_cache_hits, n - blocks);
    assert_eq!(snap_on.prep_cache_bypass, 0);
    assert_eq!(
        snap_on.prep_cache_hits + snap_on.prep_cache_misses + snap_on.prep_cache_bypass,
        snap_on.served,
        "every served request is exactly one of hit / miss / bypass"
    );

    // Cache off: every request bypasses.
    assert_eq!(snap_off.prep_cache_hits, 0);
    assert_eq!(snap_off.prep_cache_misses, 0);
    assert_eq!(snap_off.prep_cache_bypass, snap_off.served);
}

/// Independent channels (the stock random-H workload) never hit: every
/// request is a miss, eviction keeps the per-worker cache bounded, and the
/// decisions still match the uncached runtime bit-for-bit.
#[test]
fn independent_channels_miss_and_stay_exact_under_eviction() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    // Capacity 2 with 45 distinct channels forces constant eviction.
    let (cached, snap) = serve_all(build_requests(&cfg, &c), &c, 2, None);
    let (uncached, _) = serve_all(build_requests(&cfg, &c), &c, 0, None);
    assert_same_detections(&cached, &uncached, "evicting cache vs uncached");
    assert_eq!(snap.prep_cache_hits, 0, "i.i.d. channels cannot hit");
    assert_eq!(snap.prep_cache_misses, snap.served);
    assert_eq!(snap.prep_cache_bypass, 0);
}

/// Tiers whose engines override preparation (here the linear MMSE rung)
/// are not channel-cacheable: the worker bypasses the cache for them even
/// when it is enabled, and counts every request as a bypass.
#[test]
fn non_cacheable_tier_bypasses_an_enabled_cache() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    let linear_tier = || {
        let regs = default_registry(&c, &LadderConfig::default());
        let tier = regs
            .into_iter()
            .find(|t| !t.detector.channel_cacheable())
            .expect("stock registry has a linear (non-cacheable) rung");
        vec![tier]
    };
    let truth = direct_decodes(&*linear_tier()[0].detector, &build_requests(&cfg, &c));
    let (served, snap) = serve_all(build_requests(&cfg, &c), &c, 8, Some(linear_tier()));
    assert_same_detections(&served, &truth, "bypassed tier vs direct");
    assert_eq!(snap.prep_cache_hits, 0);
    assert_eq!(snap.prep_cache_misses, 0);
    assert_eq!(snap.prep_cache_bypass, snap.served);
}
