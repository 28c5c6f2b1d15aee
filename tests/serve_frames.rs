//! Frame-path exactness: submitting a coherence block as one
//! [`FrameRequest`] must produce detections **bit-identical** — indices
//! *and* search statistics — to submitting the same subcarriers one
//! [`DetectionRequest`] at a time through the same registry tier. The
//! check spans the stock and quantized registries (adaptive, fixed,
//! fixed-point, and linear rungs), survives overload/shedding, and the
//! mixed-traffic prep-accounting invariant
//! `hits + misses + bypass == served` holds throughout. The runtime has
//! one request path — a vector is served as a frame of one — so the two
//! shapes also agree on every per-vector counter, and frames use the
//! prep cache like vectors do.
//!
//! Also demonstrates the `sd-wireless` satellite: `OfdmSymbol`'s
//! `(frame, new_channel)` decode protocol lets a caller holding a
//! [`ChannelPrep`] factor each distinct channel exactly once.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{
    prepare_channel_into, prepare_with_channel_into, ChannelPrep, Detection, PrepScratch, Prepared,
    PreparedDetector, SearchWorkspace, SphereDecoder,
};
use sd_serve::{
    build_frame_requests, default_registry, explode_frames, quantized_registry, DetectionRequest,
    FrameLoadConfig, FrameRequest, LadderConfig, MetricsSnapshot, RejectReason, ServeConfig,
    ServeRuntime, Tier,
};
use sd_wireless::{Constellation, GridConfig, Modulation, OfdmConfig, OfdmSymbol};
use std::collections::HashMap;
use std::time::Duration;

fn grid_workload() -> FrameLoadConfig {
    FrameLoadConfig {
        grid: GridConfig::new(24, 4, 4, 4)
            .with_coherence(8, 2)
            .with_snr(10.0, 3.0),
        modulation: Modulation::Qam4,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(5),
        seed: 0xF8A3E5,
    }
}

fn ladder_off() -> LadderConfig {
    LadderConfig {
        enabled: false,
        kbest_k: 16,
        anytime: false,
    }
}

/// Single-tier runtime, one worker, ladder disabled: the deterministic
/// harness both submission shapes run through.
fn single_tier_runtime(tier: Tier, queue: usize) -> ServeRuntime {
    ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(queue)
            .with_ladder(ladder_off()),
        vec![tier],
    )
}

/// Serve the workload frame-by-frame; detections keyed by frame id.
fn serve_frames(
    tier: Tier,
    cfg: &FrameLoadConfig,
    c: &Constellation,
) -> HashMap<u64, Vec<Detection>> {
    let requests = build_frame_requests(cfg, c);
    let n = requests.len();
    let rt = single_tier_runtime(tier, n);
    for req in requests {
        rt.submit_frame(req).expect("queue sized for the stream");
    }
    let mut served = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("frame path stalled");
        assert_eq!(resp.tier, 0, "ladder disabled: tier 0 only");
        served.insert(resp.request.id, resp.detections);
    }
    let (snap, _, leftover) = rt.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(snap.frames_served, n as u64);
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "prep accounting must close over frame traffic"
    );
    served
}

/// Serve the identical traffic one vector at a time; detections in
/// submission order.
fn serve_vectors(tier: Tier, cfg: &FrameLoadConfig, c: &Constellation) -> Vec<Detection> {
    let requests = explode_frames(&build_frame_requests(cfg, c));
    let n = requests.len();
    let rt = single_tier_runtime(tier, n);
    for req in requests {
        rt.submit(req).expect("queue sized for the stream");
    }
    let mut served: HashMap<u64, Detection> = HashMap::new();
    for _ in 0..n {
        let resp = rt
            .collect_timeout(Duration::from_secs(10))
            .expect("vector path stalled");
        served.insert(resp.request.id, resp.detection);
    }
    rt.shutdown();
    (0..n as u64)
        .map(|id| served.remove(&id).unwrap())
        .collect()
}

/// All tiers under test: the stock registry plus the quantized rungs the
/// quantized registry adds (fixed-point K-best, l-inf FSD).
fn tiers_under_test(c: &Constellation) -> Vec<Tier> {
    let mut tiers = default_registry(c, &LadderConfig::default());
    for t in quantized_registry(c, &LadderConfig::default()) {
        if !tiers.iter().any(|have| have.label == t.label) {
            tiers.push(t);
        }
    }
    tiers
}

#[test]
fn frame_detections_bit_identical_to_per_vector_submission_for_every_tier() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let labels: Vec<String> = tiers_under_test(&c)
        .iter()
        .map(|t| t.label.to_string())
        .collect();
    for (i, label) in labels.iter().enumerate() {
        let by_frame = serve_frames(tiers_under_test(&c).remove(i), &cfg, &c);
        let by_vector = serve_vectors(tiers_under_test(&c).remove(i), &cfg, &c);
        let frames = build_frame_requests(&cfg, &c);
        let mut k = 0usize;
        for fr in &frames {
            let block = &by_frame[&fr.id];
            assert_eq!(block.len(), fr.block_len(), "{label}: block shape");
            for d in block {
                let solo = &by_vector[k];
                assert_eq!(d.indices, solo.indices, "{label} subcarrier {k}: decisions");
                assert_eq!(d.stats, solo.stats, "{label} subcarrier {k}: statistics");
                assert_eq!(
                    d.stats.final_radius_sqr.to_bits(),
                    solo.stats.final_radius_sqr.to_bits(),
                    "{label} subcarrier {k}: metric bits"
                );
                k += 1;
            }
        }
        assert_eq!(k, by_vector.len(), "{label}: all subcarriers compared");
    }
}

#[test]
fn frame_exactness_survives_overload_and_shedding() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let requests = build_frame_requests(&cfg, &c);
    let n = requests.len();
    assert!(n >= 4, "workload must have enough blocks to overflow");
    let cap = n / 2;
    // Paused single-tier runtime with a queue half the stream: the tail
    // must be shed at the door and handed back intact.
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cap)
            .with_ladder(ladder_off())
            .paused(),
        default_registry(&c, &LadderConfig::default())
            .into_iter()
            .take(1)
            .collect(),
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    let mut shed_vectors = 0u64;
    for req in requests {
        let id = req.id;
        let len = req.block_len();
        match rt.submit_frame(req) {
            Ok(()) => admitted.push(id),
            Err(rej) => {
                shed += 1;
                shed_vectors += len as u64;
                assert!(matches!(rej.reason, RejectReason::QueueFull { .. }));
                assert_eq!(rej.request.id, id, "shed frame returned intact");
                assert_eq!(rej.request.block_len(), len, "block survives rejection");
            }
        }
    }
    assert_eq!(admitted.len(), cap, "bounded queue admits exactly capacity");
    assert!(shed > 0, "overload must shed");
    rt.resume();
    let mut served = HashMap::new();
    for _ in 0..cap {
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(10))
            .expect("stalled after resume");
        served.insert(resp.request.id, resp.detections);
    }
    let (snap, _, _) = rt.shutdown();
    assert_eq!(snap.frames_served, cap as u64);
    assert_eq!(
        snap.rejected_full, shed_vectors,
        "a shed frame counts its subcarriers"
    );
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "prep accounting closes under shedding"
    );

    // Admitted frames must still decode bit-identically to a direct
    // per-subcarrier decode of the same engine.
    let det: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    for fr in build_frame_requests(&cfg, &c) {
        let Some(block) = served.get(&fr.id) else {
            continue;
        };
        for (f, got) in fr.subcarriers.iter().zip(block.iter()) {
            let mut truth = Detection::default();
            det.prepare_frame_into(f, &mut scratch, &mut prep);
            let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
            det.detect_prepared_into(&prep, r2, &mut ws, &mut truth);
            assert_eq!(got.indices, truth.indices, "frame {} decisions", fr.id);
            assert_eq!(got.stats, truth.stats, "frame {} statistics", fr.id);
        }
    }
}

#[test]
fn mixed_frame_and_vector_traffic_keeps_prep_accounting_closed() {
    // The invariant under the mixture the cache actually sees: vectors
    // and frames of the same coherence blocks, interleaved, on a
    // multi-worker pool, with the cache on and off.
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    for cache in [4, 0] {
        let frames = build_frame_requests(&cfg, &c);
        let vectors = explode_frames(&frames);
        let n_frames = frames.len();
        let n_vectors = vectors.len();
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(n_frames + n_vectors)
                .with_prep_cache(cache),
            c.clone(),
        );
        // Interleave: vector, frame, vector, frame, ...
        let mut frames = frames.into_iter();
        for req in vectors {
            rt.submit(req).expect("queue sized for the stream");
            if let Some(fr) = frames.next() {
                rt.submit_frame(fr).expect("queue sized for the stream");
            }
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, (n_vectors + n_vectors) as u64);
        assert_eq!(snap.frames_served, n_frames as u64);
        assert_eq!(
            snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
            snap.served,
            "hits + misses + bypass == served over mixed traffic"
        );
        // Bypass is only for a disabled cache or a non-cacheable tier
        // (the stock registry's MMSE floor).
        let bypass = if cache == 0 {
            snap.served
        } else {
            snap.tier_served("mmse")
        };
        assert_eq!(snap.prep_cache_bypass, bypass, "cache {cache}");
        assert!(
            snap.prep_amortization > 1.0,
            "coherence blocks amortize preparation"
        );
    }
}

/// One frame's detections by subcarrier, and the run's final snapshot.
type Served = (Vec<Vec<Detection>>, MetricsSnapshot);

/// Serve `vectors` through a one-worker, one-tier runtime, either as
/// `DetectionRequest`s or as one-subcarrier `FrameRequest`s.
fn serve_singletons(tier: Tier, vectors: Vec<DetectionRequest>, as_frames: bool) -> Served {
    let n = vectors.len();
    let rt = single_tier_runtime(tier, n);
    for v in vectors {
        if as_frames {
            let f = FrameRequest::new(v.id, vec![v.frame], v.snr_db, v.deadline);
            rt.submit_frame(f).expect("queue sized for the stream");
        } else {
            rt.submit(v).expect("queue sized for the stream");
        }
    }
    let mut served: HashMap<u64, Vec<Detection>> = HashMap::new();
    for _ in 0..n {
        if as_frames {
            let r = rt
                .collect_frame_timeout(Duration::from_secs(10))
                .expect("frame path stalled");
            served.insert(r.request.id, r.detections);
        } else {
            let r = rt
                .collect_timeout(Duration::from_secs(10))
                .expect("vector path stalled");
            served.insert(r.request.id, vec![r.detection]);
        }
    }
    let (snap, _, _) = rt.shutdown();
    let dets = (0..n as u64)
        .map(|id| served.remove(&id).unwrap())
        .collect();
    (dets, snap)
}

/// A vector is a frame of one: the same coherent traffic served as
/// `DetectionRequest`s and as one-subcarrier `FrameRequest`s decodes
/// bit-identically and moves every per-vector counter — served, per-tier
/// served, quality, and prep-cache hits, misses, bypasses and
/// factorizations — by the same amount, on every tier.
#[test]
fn vector_is_a_frame_of_one_for_every_tier() {
    let cfg = grid_workload();
    let c = Constellation::new(cfg.modulation);
    let labels: Vec<String> = tiers_under_test(&c)
        .iter()
        .map(|t| t.label.to_string())
        .collect();
    for (i, label) in labels.iter().enumerate() {
        let vectors = || explode_frames(&build_frame_requests(&cfg, &c));
        let (by_vector, vs) = serve_singletons(tiers_under_test(&c).remove(i), vectors(), false);
        let (by_frame, fs) = serve_singletons(tiers_under_test(&c).remove(i), vectors(), true);
        for (k, (v, f)) in by_vector.iter().zip(&by_frame).enumerate() {
            assert_eq!(f.len(), 1, "{label} request {k}: one subcarrier");
            assert_eq!(v[0].indices, f[0].indices, "{label} request {k}: decisions");
            assert_eq!(v[0].stats, f[0].stats, "{label} request {k}: statistics");
            assert_eq!(
                v[0].stats.final_radius_sqr.to_bits(),
                f[0].stats.final_radius_sqr.to_bits(),
                "{label} request {k}: metric bits"
            );
        }
        let counters = |s: &MetricsSnapshot| {
            [
                s.served,
                s.tiers[0].served,
                s.quality_exact,
                s.budget_exhausted,
                s.prep_cache_hits,
                s.prep_cache_misses,
                s.prep_cache_bypass,
                s.prep_factors,
            ]
        };
        assert_eq!(counters(&vs), counters(&fs), "{label}: counters");
        assert_eq!(vs.served, by_vector.len() as u64);
        assert_eq!(fs.frames_served, by_frame.len() as u64);
        assert_eq!(
            fs.frames_fused, 0,
            "{label}: one vector takes the scalar search"
        );
    }
}

/// Frames use the prep cache: a second frame on an already factored
/// channel is one hit covering all its subcarriers, costs no
/// factorization, and decodes bit-identically to an uncached decode — on
/// the exact tier (per-subcarrier loop) and on a fusable one.
#[test]
fn frames_sharing_a_channel_hit_the_cache() {
    let c = Constellation::new(Modulation::Qam4);
    // One coherence block of 32 resource elements, split into two frames
    // of 16 that share its channel.
    let grid = FrameLoadConfig {
        grid: GridConfig::new(16, 2, 4, 4)
            .with_coherence(16, 2)
            .with_snr(10.0, 0.0),
        ..grid_workload()
    };
    let block = build_frame_requests(&grid, &c).remove(0);
    assert_eq!(block.block_len(), 32);
    let halves = || {
        let (a, b) = block.subcarriers.split_at(16);
        [a.to_vec(), b.to_vec()]
            .into_iter()
            .enumerate()
            .map(|(id, sc)| FrameRequest::new(id as u64, sc, block.snr_db, block.deadline))
    };
    let registry = default_registry(&c, &LadderConfig::default());
    for (i, label) in [(0, "exact"), (1, "k-best")] {
        assert_eq!(&*registry[i].label, label);
        let rt = single_tier_runtime(default_registry(&c, &LadderConfig::default()).remove(i), 4);
        let mut served = Vec::new();
        for f in halves() {
            rt.submit_frame(f).expect("queue sized for the stream");
            served.push(
                rt.collect_frame_timeout(Duration::from_secs(10))
                    .expect("frame path stalled"),
            );
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(
            served[0].prep_factors, 1,
            "{label}: the first frame factors"
        );
        assert_eq!(served[1].prep_factors, 0, "{label}: the second one hits");
        assert_eq!(snap.prep_cache_misses, 16, "{label}");
        assert_eq!(
            snap.prep_cache_hits, 16,
            "{label}: a hit counts every subcarrier"
        );
        assert_eq!(snap.prep_cache_bypass, 0, "{label}");
        assert_eq!(snap.prep_factors, 1, "{label}");
        assert_eq!(snap.frames_fused, if i == 1 { 2 } else { 0 }, "{label}");
        // Uncached ground truth: the engine driven directly.
        let det = &*registry[i].detector;
        let mut scratch = PrepScratch::new();
        let mut prep = Prepared::empty();
        let mut ws = SearchWorkspace::new();
        for resp in &served {
            for (f, got) in resp.request.subcarriers.iter().zip(&resp.detections) {
                let mut truth = Detection::default();
                det.prepare_frame_into(f, &mut scratch, &mut prep);
                let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
                det.detect_prepared_into(&prep, r2, &mut ws, &mut truth);
                assert_eq!(got.indices, truth.indices, "{label}: decisions");
                assert_eq!(got.stats, truth.stats, "{label}: statistics");
                assert_eq!(
                    got.stats.final_radius_sqr.to_bits(),
                    truth.stats.final_radius_sqr.to_bits(),
                    "{label}: metric bits"
                );
            }
        }
    }
}

#[test]
fn ofdm_decode_serial_amortizes_channel_prep() {
    // The sd-wireless satellite end to end: decode an OFDM symbol through
    // a ChannelPrep held across the `(frame, new_channel)` protocol —
    // each distinct channel factored once — and check the result equals
    // the naive per-subcarrier full preparation, bit for bit.
    let c = Constellation::new(Modulation::Qam4);
    let ofdm = OfdmConfig::new(24, 4, 4, 6);
    let mut rng = StdRng::seed_from_u64(0x0FD7);
    let symbol = OfdmSymbol::generate(&ofdm, &c, 0.05, &mut rng);

    let det: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let mut scratch = PrepScratch::new();
    let mut chan: ChannelPrep<f64> = ChannelPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut factorizations = 0usize;
    let mut amortized_indices: Vec<Vec<usize>> = Vec::new();
    let amortized = symbol.decode_serial(&c, |f, new_channel| {
        if new_channel {
            prepare_channel_into(f, det.ordering(), &mut scratch, &mut chan);
            factorizations += 1;
        }
        prepare_with_channel_into(f, det.constellation(), &mut scratch, &mut chan, &mut prep);
        let mut d = Detection::default();
        let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
        det.detect_prepared_into(&prep, r2, &mut ws, &mut d);
        amortized_indices.push(d.indices.clone());
        d.indices
    });
    assert_eq!(
        factorizations,
        symbol.distinct_channels(),
        "one QR per distinct channel"
    );
    assert_eq!(symbol.distinct_channels(), 4);

    let mut naive_indices: Vec<Vec<usize>> = Vec::new();
    let naive = symbol.decode_serial(&c, |f, _| {
        let mut d = Detection::default();
        det.prepare_frame_into(f, &mut scratch, &mut prep);
        let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
        det.detect_prepared_into(&prep, r2, &mut ws, &mut d);
        naive_indices.push(d.indices.clone());
        d.indices
    });
    assert_eq!(amortized, naive, "same (errors, bits) either way");
    assert_eq!(
        amortized_indices, naive_indices,
        "amortized prep changes nothing"
    );
}
