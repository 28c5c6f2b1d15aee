//! Closed-loop load benchmark for the `sd-serve` runtime (ISSUE 2).
//!
//! Two claims, measured end to end through the real runtime:
//!
//! 1. **Batching pays.** At saturation (the ingress queue never empties),
//!    flush-on-size-or-age batching amortizes every synchronization cost —
//!    ingress lock, response push, metrics merge — over the batch, beating
//!    the same pool running batch-size 1.
//! 2. **The ladder saves deadlines.** On an offered-load sweep past
//!    capacity, the degradation ladder (exact → K-best → MMSE, driven by
//!    the per-SNR cost model) keeps the deadline-miss rate far below the
//!    no-degradation control at the same load, trading BER for latency
//!    instead of blowing the 10 ms real-time line.
//!
//! A third scenario exercises the configurable tier registry: a custom
//! four-rung descent (exact → best-first → K-best → MMSE) built from the
//! unified [`sd_core::PreparedDetector`] engine API and run end to end at
//! overload through [`ServeRuntime::start_with_registry`].
//!
//! A fourth scenario measures channel-coherent preparation caching
//! (ISSUE 5): a workload whose requests arrive in coherence blocks
//! sharing one `H` is served with the per-worker prep cache on vs off;
//! caching skips the QR half of preparation on every hit.
//!
//! A fifth scenario measures frame-scale serving (ISSUE 7): the same
//! coherent resource-grid traffic submitted once as whole-block
//! [`sd_serve::FrameRequest`]s and once exploded to per-vector requests
//! (prep cache on — the strongest per-vector baseline). The frame path
//! pays one submit, one ladder decision, one QR and one batched
//! `ȳ = QᴴY` per block instead of per subcarrier. A companion arm
//! (ISSUE 10) reruns the comparison on a single-rung K-best registry,
//! where the frame path additionally *fuses* the block — one GEMM batch
//! per tree level for all subcarriers ([`sd_core::decode_block_fused_into`])
//! — and reports the `frames_fused` counter alongside the speedup.
//!
//! A sixth scenario measures sharded channel-affinity serving (ISSUE 8):
//! coherent, i.i.d., and whole-frame traffic each served through one
//! shard (the classic single-queue runtime) and through N affinity
//! shards with work stealing, comparing throughput and prep-cache hit
//! rate. `host_cores` is recorded so single-core results read honestly.
//!
//! A seventh scenario measures predictive admission + anytime decoding
//! (ISSUE 9): the same 2×-overload traffic served by the reactive ladder
//! (tier choice only, admit everything the bounded queue holds) and by
//! the predictive+anytime arm, which (a) sheds requests at ingress when
//! the shard's backlog, drained at its observed mean service rate, is
//! already predicted to outlast the whole deadline, and (b) fixes an
//! explicit node/deadline [`sd_core::DecodeBudget`] per decision so
//! mispredicted decodes truncate with a best-so-far answer instead of
//! blowing the deadline. Reported: deadline-miss rate, BER, predictive
//! sheds, and the truncation counters.
//!
//! Like `expansion.rs` this bench has a hand-rolled `main` that writes
//! `BENCH_serve.json` in the repo root.

use sd_core::{
    BestFirstSd, KBestSd, MmseDetector, PreparedDetector, QuantizedKBestSd, SphereDecoder,
};
use sd_serve::{
    build_coherent_requests, build_frame_requests, default_core_allowance, explode_frames,
    host_cores, run_frame_load, run_load, run_request_stream, BatchPolicy, FrameLoadConfig,
    FrameLoadReport, LadderConfig, LoadConfig, LoadReport, MetricsSnapshot, ServeConfig,
    ServeRuntime, Tier, TierCostClass,
};
use sd_wireless::{Constellation, GridConfig, Modulation, REAL_TIME_BUDGET};
use std::time::{Duration, Instant};

/// Workers in every scenario: the host's core allowance (the old
/// hardcoded 4 oversubscribed small hosts and left big ones idle).
fn workers() -> usize {
    default_core_allowance()
}
/// Requests per measured run.
const N_REQUESTS: usize = 4000;
/// Bounded ingress queue for the sweep (deep enough that a saturated
/// backlog alone costs more than the deadline: at the ~110 k/s exact
/// capacity measured here, 2048 queued requests are ~19 ms of wait).
const SWEEP_QUEUE: usize = 2048;
/// Offered-load multipliers applied to the measured saturation capacity.
const LOAD_MULTS: [f64; 3] = [0.5, 1.0, 2.0];

fn ladder(enabled: bool) -> LadderConfig {
    LadderConfig {
        enabled,
        kbest_k: 16,
        anytime: false,
    }
}

/// The predictive + anytime arm: reactive tier choice *plus* an explicit
/// up-front decode budget per decision.
fn anytime_ladder() -> LadderConfig {
    LadderConfig {
        enabled: true,
        kbest_k: 16,
        anytime: true,
    }
}

/// Small fast frames for the batching comparison: decode work is cheap,
/// so per-request synchronization is a visible fraction of service time.
fn batching_workload() -> LoadConfig {
    LoadConfig {
        n_tx: 4,
        n_rx: 4,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![12.0],
        n_requests: N_REQUESTS,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(1),
        seed: 0xBA7C4,
    }
}

/// The sweep workload: the paper's real-time line (10 ms) over a mixed
/// SNR population at 8×8, where exact-decode cost varies strongly with
/// the operating point.
fn sweep_workload(rate_hz: f64) -> LoadConfig {
    LoadConfig {
        n_tx: 8,
        n_rx: 8,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![6.0, 10.0, 14.0],
        n_requests: N_REQUESTS,
        offered_rate_hz: rate_hz,
        deadline: REAL_TIME_BUDGET,
        seed: 0x10AD,
    }
}

/// Firehose a workload through a runtime sized to hold the whole stream
/// (saturation: the queue never empties until the run is over).
fn saturated(cfg: &LoadConfig, batch: BatchPolicy, lad: LadderConfig) -> LoadReport {
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(cfg.n_requests)
            .with_batch(batch)
            .with_ladder(lad),
        c.clone(),
    );
    let report = run_load(&rt, cfg, &c);
    rt.shutdown();
    report
}

/// One paced sweep point against a bounded queue. `predictive` switches
/// on ingress admission control (the anytime arm runs with it; the
/// reactive arms admit everything the bounded queue holds, as before).
fn sweep_point_with(rate_hz: f64, lad: LadderConfig, predictive: bool) -> LoadReport {
    let cfg = sweep_workload(rate_hz);
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(SWEEP_QUEUE)
            .with_ladder(lad)
            .with_predictive_admission(predictive),
        c.clone(),
    );
    let report = run_load(&rt, &cfg, &c);
    rt.shutdown();
    report
}

/// One paced sweep point against a bounded queue (reactive admission).
fn sweep_point(rate_hz: f64, lad: LadderConfig) -> LoadReport {
    sweep_point_with(rate_hz, lad, false)
}

/// The custom descent for the registry scenario: the stock ladder with a
/// best-first rung wedged between exact and K-best.
fn four_rung_registry(c: &Constellation, k: usize) -> Vec<Tier> {
    vec![
        Tier::new(
            "exact",
            TierCostClass::Adaptive,
            Box::new(SphereDecoder::<f64>::new(c.clone())),
        ),
        Tier::new(
            "best-first",
            TierCostClass::Adaptive,
            Box::new(BestFirstSd::<f64>::new(c.clone())),
        ),
        Tier::new(
            "k-best",
            TierCostClass::fixed_kbest(k),
            Box::new(KBestSd::<f64>::new(c.clone(), k)),
        ),
        Tier::new(
            "mmse",
            TierCostClass::Linear,
            Box::new(MmseDetector::new(c.clone())),
        ),
    ]
}

/// One paced run of the four-rung registry against a bounded queue.
fn registry_point(rate_hz: f64) -> LoadReport {
    let cfg = sweep_workload(rate_hz);
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(SWEEP_QUEUE)
            .with_ladder(ladder(true)),
        four_rung_registry(&c, 16),
    );
    let report = run_load(&rt, &cfg, &c);
    rt.shutdown();
    report
}

/// Coherence block length for the prep-cache scenario: consecutive
/// requests sharing one channel matrix (fresh `y` each), as produced by a
/// block-fading channel.
const COHERENCE_BLOCK: usize = 16;

/// The prep-cache workload: 16×16 at a benign SNR, the block-fading
/// regime the cache targets — the sorted DFS expands almost nothing, so
/// the O(M³) QR half of preparation dominates per-request service time.
fn coherent_workload() -> LoadConfig {
    LoadConfig {
        n_tx: 16,
        n_rx: 16,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![30.0],
        n_requests: N_REQUESTS,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(1),
        seed: 0xC0_4E7E,
    }
}

/// Firehose the coherent workload through a single-tier exact runtime with
/// the given prep-cache capacity; return (throughput, final snapshot).
fn prep_cache_point(cache: usize) -> (f64, MetricsSnapshot) {
    let cfg = coherent_workload();
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(cfg.n_requests)
            .with_prep_cache(cache)
            .with_ladder(ladder(false)),
        c.clone(),
    );
    let reqs = build_coherent_requests(&cfg, COHERENCE_BLOCK, &c);
    let n = reqs.len();
    let t0 = Instant::now();
    for req in reqs {
        rt.submit(req).expect("queue sized for the whole stream");
    }
    for _ in 0..n {
        rt.collect_timeout(Duration::from_secs(60))
            .expect("runtime stalled");
    }
    let throughput = n as f64 / t0.elapsed().as_secs_f64();
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    (throughput, snap)
}

/// The frame-serving workload: an 8×8 link at a benign SNR over a
/// 64-subcarrier × 256-symbol resource grid with 16×4 coherence blocks —
/// small fast decodes, so the per-request costs the frame path amortizes
/// (submit, collect, ladder decision, cost-model update, QR) are a
/// visible fraction of service time, as they are on a real base station.
fn frame_workload() -> FrameLoadConfig {
    FrameLoadConfig {
        grid: GridConfig::new(64, 256, 8, 8)
            .with_coherence(16, 4)
            .with_snr(30.0, 0.0),
        modulation: Modulation::Qam4,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(1),
        seed: 0xF4A7E,
    }
}

/// Firehose the grid as whole-frame requests through a single-tier exact
/// runtime (one ladder decision, one QR, one batched apply per block).
fn frame_point(cfg: &FrameLoadConfig) -> FrameLoadReport {
    let c = Constellation::new(cfg.modulation);
    let n_frames = build_frame_requests(cfg, &c).len();
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(n_frames)
            .with_ladder(ladder(false)),
        c.clone(),
    );
    let report = run_frame_load(&rt, cfg, &c);
    rt.shutdown();
    report
}

/// The fused-capable rungs for the frame scenario (ISSUE 10): K-best is
/// level-synchronous and data-independent, so the frame path decodes the
/// whole coherence block with one GEMM batch per tree level
/// ([`sd_core::decode_block_fused_into`]) instead of one search per
/// subcarrier. The exact tier used by [`frame_point`] cannot fuse — its
/// tree walk is data-dependent — which is why the fused claim gets its
/// own single-rung registry. Both the float and the quantized K-best are
/// measured: fusion pays most where per-call kernel entry is expensive,
/// which is the fixed-point kernel, not the float GEMM.
fn kbest_registry(c: &Constellation, quantized: bool, k: usize) -> Vec<Tier> {
    let det: Box<dyn PreparedDetector<f64>> = if quantized {
        Box::new(QuantizedKBestSd::new(c.clone(), k))
    } else {
        Box::new(KBestSd::<f64>::new(c.clone(), k))
    };
    vec![Tier::new(
        if quantized { "k-best-fx" } else { "k-best" },
        TierCostClass::fixed_kbest(k),
        det,
    )]
}

/// Firehose the grid as whole-frame requests through a single-rung
/// K-best registry: every served block takes the fused path.
fn frame_point_fused(cfg: &FrameLoadConfig, quantized: bool) -> FrameLoadReport {
    let c = Constellation::new(cfg.modulation);
    let n_frames = build_frame_requests(cfg, &c).len();
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(n_frames)
            .with_ladder(ladder(false)),
        kbest_registry(&c, quantized, 16),
    );
    let report = run_frame_load(&rt, cfg, &c);
    rt.shutdown();
    report
}

/// The per-vector control for the fused claim: identical traffic,
/// identical K-best rung, exploded to one request per subcarrier (prep
/// cache on — the strongest per-vector baseline).
fn vector_point_kbest(cfg: &FrameLoadConfig, quantized: bool) -> LoadReport {
    let c = Constellation::new(cfg.modulation);
    let requests = explode_frames(&build_frame_requests(cfg, &c));
    let n = requests.len();
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(n)
            .with_ladder(ladder(false)),
        kbest_registry(&c, quantized, 16),
    );
    let report = run_request_stream(&rt, requests, 0.0, &c);
    rt.shutdown();
    report
}

/// Firehose the identical traffic one subcarrier at a time — the
/// strongest per-vector baseline (prep cache on at its default size).
fn vector_point(cfg: &FrameLoadConfig) -> LoadReport {
    let c = Constellation::new(cfg.modulation);
    let requests = explode_frames(&build_frame_requests(cfg, &c));
    let n = requests.len();
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers())
            .with_queue_capacity(n)
            .with_ladder(ladder(false)),
        c.clone(),
    );
    let report = run_request_stream(&rt, requests, 0.0, &c);
    rt.shutdown();
    report
}

/// Shard count for the affinity scenario: at least two, so the sharded
/// arm actually exercises routing and stealing even on a small host, up
/// to the core allowance on bigger ones.
fn affinity_shards() -> usize {
    default_core_allowance().max(2)
}

/// Firehose a coherent (or `block = 1`: i.i.d.) stream through an
/// exact-tier runtime at the given shard count; return (throughput,
/// final snapshot).
fn affinity_point(cfg: &LoadConfig, block: usize, n_shards: usize) -> (f64, MetricsSnapshot) {
    let c = Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers().max(2))
            .with_shards(n_shards)
            .with_queue_capacity(cfg.n_requests * n_shards)
            .with_ladder(ladder(false)),
        c.clone(),
    );
    let reqs = build_coherent_requests(cfg, block, &c);
    let n = reqs.len();
    let t0 = Instant::now();
    for req in reqs {
        rt.submit(req).expect("queue sized for the whole stream");
    }
    for _ in 0..n {
        rt.collect_timeout(Duration::from_secs(60))
            .expect("runtime stalled");
    }
    let throughput = n as f64 / t0.elapsed().as_secs_f64();
    let (snap, leftover, _) = rt.shutdown();
    assert!(leftover.is_empty());
    (throughput, snap)
}

/// The frame arm of the affinity scenario: whole-block submission at the
/// given shard count.
fn frame_affinity_point(cfg: &FrameLoadConfig, n_shards: usize) -> FrameLoadReport {
    let c = Constellation::new(cfg.modulation);
    let n_frames = build_frame_requests(cfg, &c).len();
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(workers().max(2))
            .with_shards(n_shards)
            .with_queue_capacity(n_frames * n_shards)
            .with_ladder(ladder(false)),
        c.clone(),
    );
    let report = run_frame_load(&rt, cfg, &c);
    rt.shutdown();
    report
}

/// Prep-cache hit rate over everything served.
fn hit_rate(s: &MetricsSnapshot) -> f64 {
    if s.served == 0 {
        0.0
    } else {
        s.prep_cache_hits as f64 / s.served as f64
    }
}

fn tiers_json(r: &LoadReport) -> String {
    let fields: Vec<String> = r
        .tiers
        .iter()
        .map(|(label, n)| format!("\"{label}\": {n}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn tiers_human(r: &LoadReport) -> String {
    let fields: Vec<String> = r
        .tiers
        .iter()
        .map(|(label, n)| format!("{label}={n}"))
        .collect();
    fields.join(" ")
}

fn report_json(r: &LoadReport) -> String {
    format!(
        "{{\"offered\": {}, \"shed\": {}, \"served\": {}, \
         \"throughput_hz\": {:.0}, \"p50_latency_us\": {:.1}, \
         \"p99_latency_us\": {:.1}, \"deadline_miss_rate\": {:.4}, \
         \"tiers\": {}, \
         \"ber\": {:.5}, \"mean_batch_size\": {:.2}, \
         \"quality_exact\": {}, \"budget_exhausted\": {}, \
         \"truncated_rate\": {:.4}}}",
        r.offered,
        r.shed,
        r.served,
        r.throughput_hz,
        r.p50_latency_us,
        r.p99_latency_us,
        r.deadline_miss_rate,
        tiers_json(r),
        r.ber(),
        r.snapshot.mean_batch_size,
        r.snapshot.quality_exact,
        r.snapshot.budget_exhausted,
        r.truncated_rate(),
    )
}

fn main() {
    // -------- Claim 1: batching vs batch-size-1 at saturation ----------
    let wl = batching_workload();
    eprintln!("batching: warm-up ...");
    saturated(
        &LoadConfig {
            n_requests: 500,
            ..wl.clone()
        },
        BatchPolicy::default(),
        ladder(false),
    );
    eprintln!("batching: batch-size 1 (control) ...");
    let unbatched = saturated(&wl, BatchPolicy::unbatched(), ladder(false));
    eprintln!("batching: flush-on-size-or-age ...");
    let batched = saturated(&wl, BatchPolicy::default(), ladder(false));
    let batching_speedup = batched.throughput_hz / unbatched.throughput_hz;
    eprintln!(
        "saturated throughput: batched {:.0}/s vs unbatched {:.0}/s ({batching_speedup:.2}x, \
         mean batch {:.1})",
        batched.throughput_hz, unbatched.throughput_hz, batched.snapshot.mean_batch_size,
    );

    // -------- Claim 2: offered-load sweep, ladder on vs off ------------
    eprintln!("sweep: probing saturation capacity ...");
    let probe = saturated(&sweep_workload(0.0), BatchPolicy::default(), ladder(false));
    let cap_hz = probe.throughput_hz;
    eprintln!("sweep: exact-decode capacity {cap_hz:.0}/s");

    let mut sweep = Vec::new();
    for mult in LOAD_MULTS {
        let rate = mult * cap_hz;
        eprintln!("sweep: {mult}x capacity ({rate:.0}/s), ladder off ...");
        let off = sweep_point(rate, ladder(false));
        eprintln!("sweep: {mult}x capacity ({rate:.0}/s), ladder on ...");
        let on = sweep_point(rate, ladder(true));
        eprintln!(
            "  miss rate {:.1}% -> {:.1}%  (tiers on: {})",
            100.0 * off.deadline_miss_rate,
            100.0 * on.deadline_miss_rate,
            tiers_human(&on),
        );
        sweep.push((mult, rate, off, on));
    }

    let (top_mult, _, top_off, top_on) = sweep.last().unwrap();
    eprintln!(
        "at {top_mult}x load the ladder cuts deadline misses {:.1}% -> {:.1}% \
         (BER {:.4} -> {:.4})",
        100.0 * top_off.deadline_miss_rate,
        100.0 * top_on.deadline_miss_rate,
        top_off.ber(),
        top_on.ber()
    );

    // -------- Claim 3: a custom registry runs end to end ---------------
    let registry_rate = 2.0 * cap_hz;
    eprintln!("registry: four-rung descent at 2x capacity ({registry_rate:.0}/s) ...");
    let registry = registry_point(registry_rate);
    eprintln!(
        "  miss rate {:.1}%, tiers: {}",
        100.0 * registry.deadline_miss_rate,
        tiers_human(&registry),
    );

    // -------- Claim 4: channel-coherent prep caching ------------------
    eprintln!("prep cache: coherent workload (block {COHERENCE_BLOCK}), cache off ...");
    let (cache_off_hz, _) = prep_cache_point(0);
    eprintln!("prep cache: coherent workload (block {COHERENCE_BLOCK}), cache on ...");
    let (cache_on_hz, cache_snap) = prep_cache_point(8);
    let cache_speedup = cache_on_hz / cache_off_hz;
    eprintln!(
        "  throughput {cache_off_hz:.0}/s -> {cache_on_hz:.0}/s ({cache_speedup:.2}x, \
         {} hits / {} misses)",
        cache_snap.prep_cache_hits, cache_snap.prep_cache_misses,
    );

    // -------- Claim 5: frame-scale serving vs per-vector --------------
    let fw = frame_workload();
    let warmup = FrameLoadConfig {
        grid: GridConfig::new(64, 16, 8, 8)
            .with_coherence(16, 4)
            .with_snr(30.0, 0.0),
        ..fw.clone()
    };
    eprintln!("frames: warm-up ...");
    frame_point(&warmup);
    vector_point(&warmup);
    eprintln!("frames: per-vector baseline (prep cache on) ...");
    let by_vector = vector_point(&fw);
    eprintln!("frames: whole-frame submission ...");
    let by_frame = frame_point(&fw);
    let frame_speedup = by_frame.throughput_hz / by_vector.throughput_hz;
    eprintln!(
        "  subcarriers/s: per-vector {:.0} -> frames {:.0} ({frame_speedup:.2}x, \
         {:.1} subcarriers per QR)",
        by_vector.throughput_hz,
        by_frame.throughput_hz,
        by_frame.prep_amortization(),
    );

    // -------- Claim 5b: fused block decode on the frame path ----------
    let mut fused_arms = Vec::new();
    for (label, quantized) in [("k-best16", false), ("k-best-fx16", true)] {
        eprintln!("frames fused: {label} warm-up ...");
        frame_point_fused(&warmup, quantized);
        vector_point_kbest(&warmup, quantized);
        eprintln!("frames fused: {label} per-vector baseline ...");
        let by_vec = vector_point_kbest(&fw, quantized);
        eprintln!("frames fused: {label} whole-frame submission (fused) ...");
        let by_fr = frame_point_fused(&fw, quantized);
        let speedup = by_fr.throughput_hz / by_vec.throughput_hz;
        eprintln!(
            "  {label} subcarriers/s: per-vector {:.0} -> fused frames {:.0} \
             ({speedup:.2}x, {}/{} frames fused) on {} host core(s)",
            by_vec.throughput_hz,
            by_fr.throughput_hz,
            by_fr.snapshot.frames_fused,
            by_fr.served_frames,
            host_cores(),
        );
        assert_eq!(
            by_fr.snapshot.frames_fused, by_fr.served_frames,
            "every {label} frame must take the fused path"
        );
        fused_arms.push((label, by_vec, by_fr, speedup));
    }

    // -------- Claim 6: sharded channel-affinity serving ----------------
    let n_shards = affinity_shards();
    let acfg = coherent_workload();
    eprintln!("affinity: coherent block {COHERENCE_BLOCK}, 1 shard ...");
    let (coh_one_hz, coh_one) = affinity_point(&acfg, COHERENCE_BLOCK, 1);
    eprintln!("affinity: coherent block {COHERENCE_BLOCK}, {n_shards} shards ...");
    let (coh_n_hz, coh_n) = affinity_point(&acfg, COHERENCE_BLOCK, n_shards);
    eprintln!("affinity: i.i.d. channels, 1 shard ...");
    let (iid_one_hz, _) = affinity_point(&acfg, 1, 1);
    eprintln!("affinity: i.i.d. channels, {n_shards} shards ...");
    let (iid_n_hz, _) = affinity_point(&acfg, 1, n_shards);
    eprintln!("affinity: frame traffic, 1 shard ...");
    let fr_one = frame_affinity_point(&fw, 1);
    eprintln!("affinity: frame traffic, {n_shards} shards ...");
    let fr_n = frame_affinity_point(&fw, n_shards);
    let coh_stolen: u64 = coh_n.shards.iter().map(|s| s.stolen_in).sum();
    eprintln!(
        "  coherent {coh_one_hz:.0}/s -> {coh_n_hz:.0}/s ({:.2}x) at hit rate \
         {:.3} -> {:.3} ({coh_stolen} stolen); iid {iid_one_hz:.0}/s -> {iid_n_hz:.0}/s; \
         frames {:.0} -> {:.0} subcarriers/s on {} host core(s)",
        coh_n_hz / coh_one_hz,
        hit_rate(&coh_one),
        hit_rate(&coh_n),
        fr_one.throughput_hz,
        fr_n.throughput_hz,
        host_cores(),
    );

    // -------- Claim 7: predictive + anytime vs reactive at 2x ----------
    let overload_rate = 2.0 * cap_hz;
    eprintln!("anytime: 2x overload ({overload_rate:.0}/s), predictive+anytime ladder ...");
    let anytime = sweep_point_with(overload_rate, anytime_ladder(), true);
    // `top_on` is the reactive ladder at the same 2x rate — the control.
    eprintln!(
        "  miss rate reactive {:.1}% -> anytime {:.1}% (truncated {:.1}% of served, \
         {} shed on prediction, BER {:.4} -> {:.4})",
        100.0 * top_on.deadline_miss_rate,
        100.0 * anytime.deadline_miss_rate,
        100.0 * anytime.truncated_rate(),
        anytime.snapshot.rejected_predicted,
        top_on.ber(),
        anytime.ber(),
    );

    let fused_rows: Vec<String> = fused_arms
        .iter()
        .map(|(label, by_vec, by_fr, speedup)| {
            format!(
                "      \"{label}\": {{\"per_vector_throughput_hz\": {:.0}, \
                 \"frame_throughput_hz\": {:.0}, \"speedup\": {speedup:.3}, \
                 \"frames_fused\": {}, \"frames_served\": {}, \
                 \"ber_per_vector\": {:.5}, \"ber_frame\": {:.5}}}",
                by_vec.throughput_hz,
                by_fr.throughput_hz,
                by_fr.snapshot.frames_fused,
                by_fr.served_frames,
                by_vec.ber(),
                by_fr.ber(),
            )
        })
        .collect();
    let sweep_rows: Vec<String> = sweep
        .iter()
        .map(|(mult, rate, off, on)| {
            format!(
                "    {{\"load_multiplier\": {mult}, \"offered_rate_hz\": {rate:.0},\n     \
                 \"ladder_off\": {},\n     \"ladder_on\": {}}}",
                report_json(off),
                report_json(on)
            )
        })
        .collect();
    let w = workers();
    let json = format!(
        "{{\n  \"config\": {{\"workers\": {w}, \"n_requests\": {N_REQUESTS}, \
         \"sweep_queue\": {SWEEP_QUEUE}, \"deadline_ms\": 10,\n    \
         \"batching_workload\": \"4x4 QAM4 @ 12 dB\", \
         \"sweep_workload\": \"8x8 QAM4 @ {{6,10,14}} dB\"}},\n  \
         \"batching\": {{\n    \"unbatched\": {},\n    \"batched\": {},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"capacity_probe_hz\": {:.0},\n  \"sweep\": [\n{}\n  ],\n  \
         \"ladder_at_top_load\": {{\"miss_rate_off\": {:.4}, \"miss_rate_on\": {:.4}, \
         \"ber_off\": {:.5}, \"ber_on\": {:.5}}},\n  \
         \"registry_four_rung\": {{\"rungs\": [\"exact\", \"best-first\", \"k-best\", \"mmse\"], \
         \"load_multiplier\": 2.0,\n    \"report\": {}}},\n  \
         \"prep_cache\": {{\"workload\": \"16x16 QAM4 @ 30 dB\", \
         \"coherence_block\": {COHERENCE_BLOCK},\n    \
         \"throughput_off_hz\": {cache_off_hz:.0}, \"throughput_on_hz\": {cache_on_hz:.0}, \
         \"speedup\": {cache_speedup:.3},\n    \
         \"hits\": {}, \"misses\": {}, \"bypass\": {}}},\n  \
         \"frame_serving\": {{\"workload\": \"64x256 grid, 8x8 QAM4 @ 30 dB, \
         coherence 16x4\", \"host_cores\": {},\n    \
         \"frames\": {}, \"subcarriers_per_frame\": {:.0},\n    \
         \"per_vector_throughput_hz\": {:.0}, \"frame_throughput_hz\": {:.0}, \
         \"speedup\": {frame_speedup:.3},\n    \
         \"prep_factors\": {}, \"prep_amortization\": {:.1}, \
         \"ber_per_vector\": {:.5}, \"ber_frame\": {:.5},\n    \
         \"vector_hits\": {}, \"vector_misses\": {}, \"vector_bypass\": {},\n    \
         \"fused\": {{\n{}\n    }}}},\n  \
         \"sharded_affinity\": {{\"host_cores\": {}, \"n_shards\": {n_shards}, \
         \"workers\": {}, \"coherent_block\": {COHERENCE_BLOCK},\n    \
         \"coherent\": {{\"one_shard_hz\": {coh_one_hz:.0}, \"sharded_hz\": {coh_n_hz:.0}, \
         \"speedup\": {:.3}, \"hit_rate_one_shard\": {:.4}, \"hit_rate_sharded\": {:.4}, \
         \"stolen\": {coh_stolen}}},\n    \
         \"iid\": {{\"one_shard_hz\": {iid_one_hz:.0}, \"sharded_hz\": {iid_n_hz:.0}, \
         \"speedup\": {:.3}}},\n    \
         \"frames\": {{\"one_shard_hz\": {:.0}, \"sharded_hz\": {:.0}, \
         \"speedup\": {:.3}}}}},\n  \
         \"predictive_anytime\": {{\"load_multiplier\": 2.0, \
         \"offered_rate_hz\": {overload_rate:.0}, \"predictive_admission\": true,\n    \
         \"reactive\": {},\n    \"anytime\": {},\n    \
         \"miss_rate_reactive\": {:.4}, \"miss_rate_anytime\": {:.4}, \
         \"ber_reactive\": {:.5}, \"ber_anytime\": {:.5}, \
         \"anytime_truncated_rate\": {:.4}, \
         \"anytime_rejected_predicted\": {}}}\n}}\n",
        report_json(&unbatched),
        report_json(&batched),
        batching_speedup,
        cap_hz,
        sweep_rows.join(",\n"),
        top_off.deadline_miss_rate,
        top_on.deadline_miss_rate,
        top_off.ber(),
        top_on.ber(),
        report_json(&registry),
        cache_snap.prep_cache_hits,
        cache_snap.prep_cache_misses,
        cache_snap.prep_cache_bypass,
        host_cores(),
        by_frame.served_frames,
        by_frame.subcarriers as f64 / by_frame.served_frames.max(1) as f64,
        by_vector.throughput_hz,
        by_frame.throughput_hz,
        by_frame.prep_factors,
        by_frame.prep_amortization(),
        by_vector.ber(),
        by_frame.ber(),
        by_vector.snapshot.prep_cache_hits,
        by_vector.snapshot.prep_cache_misses,
        by_vector.snapshot.prep_cache_bypass,
        fused_rows.join(",\n"),
        host_cores(),
        workers().max(2),
        coh_n_hz / coh_one_hz,
        hit_rate(&coh_one),
        hit_rate(&coh_n),
        iid_n_hz / iid_one_hz,
        fr_one.throughput_hz,
        fr_n.throughput_hz,
        fr_n.throughput_hz / fr_one.throughput_hz,
        report_json(top_on),
        report_json(&anytime),
        top_on.deadline_miss_rate,
        anytime.deadline_miss_rate,
        top_on.ber(),
        anytime.ber(),
        anytime.truncated_rate(),
        anytime.snapshot.rejected_predicted,
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = root.join("BENCH_serve.json");
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", out.display());
}
