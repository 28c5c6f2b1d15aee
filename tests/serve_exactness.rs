//! The serving layer adds scheduling, not numerics: with degradation
//! disabled and a single seeded worker, every decision served by
//! `sd-serve` is **bit-identical** — indices *and* search statistics — to
//! driving the same engine directly through the
//! [`sd_core::PreparedDetector`] entry points on the same frames. The
//! check is parameterized over *every* tier of the registry (stock plus a
//! best-first rung), since each one rides the same unified decode path.
//!
//! Runs of consecutive vectors on one channel are served as one block;
//! every vector in them still decodes bit-identically at its tier, under
//! every topology, ladder mode and registry. Malformed requests are
//! refused at admission, and the runtime keeps serving after them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::{
    BestFirstSd, Detection, Detector, PrepScratch, Prepared, PreparedDetector, SearchWorkspace,
    SphereDecoder,
};
use sd_serve::{
    build_requests, default_registry, quantized_registry, Defect, DetectionRequest, FrameRequest,
    LadderConfig, LoadConfig, MetricsSnapshot, RejectReason, ServeConfig, ServeRuntime, Tier,
    TierCostClass,
};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation, REAL_TIME_BUDGET};
use std::collections::HashMap;
use std::time::Duration;

fn workload() -> LoadConfig {
    LoadConfig {
        n_tx: 6,
        n_rx: 6,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![4.0, 8.0, 16.0],
        n_requests: 45,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0xE1AC,
    }
}

/// Every tier under test: the stock registry plus a best-first rung, so
/// the parameterization spans adaptive, fixed, and linear cost classes.
fn tiers_under_test(c: &Constellation) -> Vec<Tier> {
    let mut tiers = default_registry(c, &LadderConfig::default());
    tiers.push(Tier::new(
        "best-first",
        TierCostClass::Adaptive,
        Box::new(BestFirstSd::<f64>::new(c.clone())),
    ));
    tiers
}

/// Ground truth for one tier: drive its engine directly (prepare →
/// initial radius → decode-into), exactly the calls the worker makes.
fn direct_decodes(
    detector: &dyn PreparedDetector<f64>,
    cfg: &LoadConfig,
    c: &Constellation,
) -> Vec<Detection> {
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    build_requests(cfg, c)
        .iter()
        .map(|req| {
            let mut det = Detection::default();
            detector.prepare_frame_into(&req.frame, &mut scratch, &mut prep);
            let r2 = detector.initial_radius_sqr(req.frame.h.rows(), req.frame.noise_variance);
            detector.detect_prepared_into(&prep, r2, &mut ws, &mut det);
            det
        })
        .collect()
}

/// Serve the workload through a single-tier registry (1 worker, ladder
/// off) and compare each response bit-for-bit against `truth`.
fn assert_served_matches(tier: Tier, truth: &[Detection], cfg: &LoadConfig, c: &Constellation) {
    let label = tier.label.to_string();
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(cfg.n_requests)
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            }),
        vec![tier],
    );
    for req in build_requests(cfg, c) {
        rt.submit(req).expect("queue sized for the whole stream");
    }
    let mut served = HashMap::new();
    for _ in 0..cfg.n_requests {
        let resp = rt
            .collect_timeout(Duration::from_secs(10))
            .expect("runtime stalled");
        assert_eq!(resp.tier, 0, "ladder disabled: tier 0 only");
        assert_eq!(&*resp.tier_label, label, "tier label");
        served.insert(resp.request.id, resp);
    }
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(snap.served, cfg.n_requests as u64);
    assert_eq!(snap.tier_served(&label), cfg.n_requests as u64);

    for (i, truth) in truth.iter().enumerate() {
        let resp = &served[&(i as u64)];
        assert_eq!(
            resp.detection.indices, truth.indices,
            "{label} request {i}: decisions differ"
        );
        assert_eq!(
            resp.detection.stats, truth.stats,
            "{label} request {i}: search statistics differ"
        );
        assert_eq!(
            resp.detection.stats.final_radius_sqr.to_bits(),
            truth.stats.final_radius_sqr.to_bits(),
            "{label} request {i}: solution metric differs in bits"
        );
    }
}

#[test]
fn served_decisions_are_bit_identical_to_direct_decode_for_every_tier() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    // Compute all ground truths first, then consume the tiers one
    // single-tier runtime at a time.
    let truths: Vec<Vec<Detection>> = tiers_under_test(&c)
        .iter()
        .map(|t| direct_decodes(&*t.detector, &cfg, &c))
        .collect();
    for (tier, truth) in tiers_under_test(&c).into_iter().zip(&truths) {
        assert_served_matches(tier, truth, &cfg, &c);
    }
}

#[test]
fn engine_direct_decode_matches_legacy_detector_api() {
    // Anchor the ground-truth helper itself: for the exact tier it must
    // reproduce the plain `Detector::detect` path bit-for-bit.
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
    let via_engine = direct_decodes(&sd, &cfg, &c);
    for (req, truth) in build_requests(&cfg, &c).iter().zip(&via_engine) {
        let legacy = sd.detect(&req.frame);
        assert_eq!(legacy.indices, truth.indices);
        assert_eq!(legacy.stats, truth.stats);
    }
}

/// Ground truth for one receive vector: `det` driven directly, unbudgeted.
fn direct(det: &dyn PreparedDetector<f64>, f: &FrameData) -> Detection {
    let mut d = Detection::default();
    let mut prep = Prepared::empty();
    det.prepare_frame_into(f, &mut PrepScratch::new(), &mut prep);
    let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
    det.detect_prepared_into(&prep, r2, &mut SearchWorkspace::new(), &mut d);
    d
}

fn assert_bit_identical(got: &Detection, want: &Detection, what: &str) {
    assert_eq!(got.indices, want.indices, "{what}: decisions differ");
    assert_eq!(got.stats, want.stats, "{what}: statistics differ");
    assert_eq!(
        got.stats.final_radius_sqr.to_bits(),
        want.stats.final_radius_sqr.to_bits(),
        "{what}: metric bits differ"
    );
}

/// One submitted item of the run traffic: a vector or a frame, with the
/// channel it was drawn on.
enum Item {
    Vector(usize, DetectionRequest),
    Frame(usize, FrameRequest),
}

impl Item {
    fn channel(&self) -> usize {
        match self {
            Item::Vector(ch, _) | Item::Frame(ch, _) => *ch,
        }
    }
}

/// Same-channel runs of 1, 2, 16 and 17 vectors, vectors on fresh
/// channels, and frames, interleaved — one of them on the channel of the
/// run before it, which it must not join. The second vector of the run of
/// two has a zero deadline, which sends that run to the floor when the
/// ladder is on. With 16-item batches the run of 16 and the run of 17
/// both straddle a batch boundary. Every other deadline is 30 s, which
/// no anytime budget trips.
fn run_traffic() -> Vec<Item> {
    let deadline = Duration::from_secs(30);
    let c = Constellation::new(Modulation::Qam4);
    let mut rng = StdRng::seed_from_u64(0x5A3E_C4A7);
    let snr = 10.0;
    let sigma2 = noise_variance(snr, 4);
    let channels: Vec<FrameData> = (0..8)
        .map(|_| FrameData::generate(4, 4, &c, sigma2, &mut rng))
        .collect();
    let mut fresh = |ch: usize| {
        let draw = FrameData::generate(4, 4, &c, sigma2, &mut rng);
        FrameData {
            h: channels[ch].h.clone(),
            ..draw
        }
    };
    // (channel, vectors) for a run of vectors; (channel, 0) for a frame of 8.
    let layout = [
        (0, 1),
        (1, 1),
        (2, 2),
        (3, 0),
        (4, 16),
        (5, 1),
        (6, 17),
        (6, 0),
        (6, 2),
        (7, 1),
    ];
    let mut items = Vec::new();
    for (ch, len) in layout {
        let id = items.len() as u64;
        if len == 0 {
            let sc = (0..8).map(|_| fresh(ch)).collect();
            items.push(Item::Frame(ch, FrameRequest::new(id, sc, snr, deadline)));
        }
        for k in 0..len {
            let id = items.len() as u64;
            let due = if ch == 2 && k == 1 {
                Duration::ZERO
            } else {
                deadline
            };
            items.push(Item::Vector(
                ch,
                DetectionRequest::new(id, fresh(ch), snr, due),
            ));
        }
    }
    items
}

/// Vectors a one-worker, one-shard runtime serves in runs when it drains
/// `items` in batches of `batch`: the maximal stretches of consecutive
/// vectors on one channel inside a batch, counted when two or longer.
fn expected_run_vectors(items: &[Item], batch: usize) -> u64 {
    let mut total = 0;
    for chunk in items.chunks(batch) {
        let mut k = 0;
        while k < chunk.len() {
            let mut len = 1;
            if let Item::Vector(ch, _) = chunk[k] {
                while matches!(chunk.get(k + len), Some(Item::Vector(c, _)) if *c == ch) {
                    len += 1;
                }
            }
            if len > 1 {
                total += len as u64;
            }
            k += len;
        }
    }
    total
}

/// A registry constructor of the serve crate.
type Registry = fn(&Constellation, &LadderConfig) -> Vec<Tier>;

/// A registry with `lead` moved to the front, so that it serves every
/// request when the ladder is off and every request with time to spare
/// when it is on; the floor stays last.
fn led_by(registry: Registry, lead: usize) -> Vec<Tier> {
    let c = Constellation::new(Modulation::Qam4);
    let mut tiers = registry(&c, &LadderConfig::default());
    let t = tiers.remove(lead);
    tiers.insert(0, t);
    tiers
}

/// Counters that must close at every snapshot of the run traffic.
fn assert_closed(snap: &MetricsSnapshot, what: &str) {
    assert_eq!(
        snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
        snap.served,
        "{what}: hits + misses + bypass == served"
    );
    for s in &snap.shards {
        assert_eq!(
            s.prep_hits + s.prep_misses + s.prep_bypass,
            s.served,
            "{what}"
        );
    }
    assert_eq!(
        snap.quality_exact + snap.budget_exhausted,
        snap.served,
        "{what}"
    );
}

/// Same-channel runs are served as blocks and change no bit: under 1 and
/// 2 workers, 1 and 2 shards, the ladder off and on (anytime budgets on),
/// with every rung but the floor of the stock and quantized registries
/// leading in turn, each request gets exactly one response, bit-identical
/// to a direct decode at the tier that served it, and the prep accounting
/// closes. One worker on one shard forms exactly the runs its batches hold.
#[test]
fn same_channel_runs_are_bit_identical_to_direct_decodes() {
    let registries: [(&str, Registry, usize); 2] = [
        ("stock", default_registry, 3),
        ("quantized", quantized_registry, 5),
    ];
    let max_batch = ServeConfig::default().batch.max_batch;
    for (name, registry, len) in registries {
        for lead in 0..len - 1 {
            let truth = led_by(registry, lead);
            for (workers, shards) in [(1, 1), (2, 1), (2, 2)] {
                for ladder_on in [false, true] {
                    let what = format!(
                        "{name} led by {}, {workers} workers, {shards} shards, ladder {}",
                        truth[0].label,
                        if ladder_on { "on" } else { "off" }
                    );
                    let items = run_traffic();
                    let n_items = items.len();
                    let expected_runs = expected_run_vectors(&items, max_batch);
                    let at_most = expected_run_vectors(&items, n_items);
                    let rt = ServeRuntime::start_with_registry(
                        ServeConfig::default()
                            .with_workers(workers)
                            .with_shards(shards)
                            .with_queue_capacity(n_items * shards)
                            .with_ladder(LadderConfig {
                                enabled: ladder_on,
                                kbest_k: 16,
                                anytime: true,
                            })
                            .paused(),
                        led_by(registry, lead),
                    );
                    let mut channel_of = HashMap::new();
                    for item in items {
                        channel_of.insert(
                            match &item {
                                Item::Vector(_, r) => r.id,
                                Item::Frame(_, f) => f.id,
                            },
                            item.channel(),
                        );
                        match item {
                            Item::Vector(_, r) => rt.submit(r).expect("queue sized for it"),
                            Item::Frame(_, f) => rt.submit_frame(f).expect("queue sized for it"),
                        }
                    }
                    rt.resume();
                    let (snap, vectors, frames) = rt.shutdown();
                    assert_eq!(
                        vectors.len() + frames.len(),
                        n_items,
                        "{what}: one response each"
                    );
                    let mut ids: Vec<u64> = vectors.iter().map(|r| r.request.id).collect();
                    ids.extend(frames.iter().map(|f| f.request.id));
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), n_items, "{what}: no request answered twice");
                    assert_eq!(snap.served, 57, "{what}");
                    assert_closed(&snap, &what);
                    assert_eq!(snap.budget_exhausted, 0, "{what}: 30 s never truncates");
                    if (workers, shards) == (1, 1) {
                        assert_eq!(snap.run_vectors, expected_runs, "{what}: runs formed");
                        if !ladder_on && truth[0].detector.channel_cacheable() {
                            // The first arrival on each channel misses: seven
                            // vectors and the eight subcarriers of the frame on
                            // channel 3. Every later vector of a run hits.
                            assert_eq!(snap.prep_cache_misses, 7 + 8, "{what}");
                            assert_eq!(snap.prep_cache_hits, 57 - 15, "{what}");
                            assert_eq!(snap.prep_factors, 7 + 1, "{what}: one QR a channel");
                        }
                    } else {
                        assert!(snap.run_vectors <= at_most, "{what}: {}", snap.run_vectors);
                    }
                    for r in &vectors {
                        let id = r.request.id;
                        let want = direct(&*truth[r.tier].detector, &r.request.frame);
                        assert_bit_identical(&r.detection, &want, &format!("{what}: vector {id}"));
                        if !ladder_on {
                            assert_eq!(r.tier, 0, "{what}: ladder off serves the lead rung");
                        }
                    }
                    for f in &frames {
                        for (k, (sc, got)) in
                            f.request.subcarriers.iter().zip(&f.detections).enumerate()
                        {
                            let want = direct(&*truth[f.tier].detector, sc);
                            let at = format!("{what}: frame {} subcarrier {k}", f.request.id);
                            assert_bit_identical(got, &want, &at);
                        }
                    }
                    if ladder_on && workers == 1 {
                        // The run of two on channel 2 carries a zero deadline,
                        // so the whole run was served at the floor.
                        let floor = truth.len() - 1;
                        for r in vectors.iter().filter(|r| channel_of[&r.request.id] == 2) {
                            assert_eq!(r.tier, floor, "{what}: tightest deadline rules the run");
                        }
                    }
                }
            }
        }
    }
}

/// The three malformed inputs that used to take a worker down — a NaN in
/// `H`, an infinity in `y`, a `y` one entry short — are refused at
/// admission with a typed reason and counted; a good request after them
/// is served bit-identically to a direct decode, and shutdown is clean.
/// Malformed frames are refused the same way, a frame whose subcarriers
/// carry two different channels among them.
#[test]
fn malformed_requests_are_refused_and_serving_continues() {
    let cfg = workload();
    let c = Constellation::new(cfg.modulation);
    let tiers = default_registry(&c, &LadderConfig::default());
    let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
    let good = build_requests(&cfg, &c).remove(0);
    let refuse = |mut req: DetectionRequest, spoil: fn(&mut FrameData), defect| {
        spoil(&mut req.frame);
        let rej = rt.submit(req).expect_err("malformed input must be refused");
        assert_eq!(
            rej.reason,
            RejectReason::Malformed {
                subcarrier: 0,
                defect
            }
        );
    };
    type Spoiler = fn(&mut FrameData);
    let spoilers: [(Spoiler, Defect); 5] = [
        (|f| f.h[(2, 1)].re = f64::NAN, Defect::Value),
        (|f| f.y[3].im = f64::INFINITY, Defect::Value),
        (|f| f.y.truncate(f.y.len() - 1), Defect::Shape),
        (|f| f.noise_variance = -1.0, Defect::Value),
        (|f| f.noise_variance = f64::NAN, Defect::Value),
    ];
    for (spoil, defect) in spoilers {
        refuse(build_requests(&cfg, &c).remove(0), spoil, defect);
    }
    // A frame whose third subcarrier is short is refused whole.
    let mut sc = vec![good.frame.clone(); 4];
    sc[2].y.pop();
    let frame = FrameRequest {
        id: 99,
        subcarriers: sc,
        snr_db: good.snr_db,
        deadline: good.deadline,
    };
    let rej = rt.submit_frame(frame).expect_err("short subcarrier");
    assert_eq!(
        rej.reason,
        RejectReason::Malformed {
            subcarrier: 2,
            defect: Defect::Shape
        }
    );
    assert_eq!(rej.request.block_len(), 4, "the frame comes back intact");
    // A frame built field by field whose second subcarrier carries another
    // finite channel is refused too: no worker ever sees a mixed block.
    let mut sc = vec![good.frame.clone(); 2];
    sc[1].h[(0, 0)].re += 0.5;
    let frame = FrameRequest {
        id: 100,
        subcarriers: sc,
        snr_db: good.snr_db,
        deadline: good.deadline,
    };
    let rej = rt.submit_frame(frame).expect_err("mixed channels");
    assert_eq!(
        rej.reason,
        RejectReason::Malformed {
            subcarrier: 1,
            defect: Defect::Shape
        }
    );

    let want = direct(&*tiers[0].detector, &good.frame);
    rt.submit(good).expect("a good request is admitted");
    let resp = rt
        .collect_timeout(Duration::from_secs(10))
        .expect("the worker survived");
    assert_eq!(resp.tier, 0);
    assert_bit_identical(&resp.detection, &want, "good request after malformed ones");
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    assert_eq!(
        snap.rejected_malformed,
        5 + 4 + 2,
        "vectors refused as malformed"
    );
    assert_eq!(snap.accepted, 1);
    assert_eq!(snap.served, 1);
}
