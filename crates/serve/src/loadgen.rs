//! Seeded closed-loop load harness.
//!
//! Generates a reproducible request stream (frames drawn per-seed over an
//! SNR mixture), paces submissions at a configurable offered rate against
//! a virtual arrival clock, collects responses opportunistically while
//! pacing, and reduces everything to a [`LoadReport`] — throughput,
//! latency percentiles, deadline-miss rate, shed/degradation mix, and the
//! accuracy cost of degradation (bit errors against the generator's
//! ground truth).
//!
//! The **frame mode** replays an LTE-like resource grid
//! ([`sd_wireless::ResourceGrid`]): each coherence block becomes one
//! [`FrameRequest`] submitted whole through
//! [`ServeRuntime::submit_frame`], reduced to a [`FrameLoadReport`].
//! [`explode_frames`] flattens the same traffic into per-vector
//! [`DetectionRequest`]s so the two submission shapes can be compared on
//! bit-identical workloads ([`run_request_stream`] drives the per-vector
//! arm).

use crate::metrics::MetricsSnapshot;
use crate::request::{DetectionRequest, DetectionResponse, FrameRequest, FrameResponse};
use crate::runtime::ServeRuntime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::DetectionStats;
use sd_wireless::{
    noise_variance, Channel, Constellation, FrameData, GridConfig, Modulation, ResourceGrid,
    TxFrame, REAL_TIME_BUDGET,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload description for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Transmit antennas.
    pub n_tx: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// Constellation.
    pub modulation: Modulation,
    /// SNR mixture: requests cycle through these operating points.
    pub snr_grid_db: Vec<f64>,
    /// Total requests to offer.
    pub n_requests: usize,
    /// Offered arrival rate in requests/s; `0.0` submits as fast as the
    /// queue accepts (saturation probe).
    pub offered_rate_hz: f64,
    /// Per-request deadline.
    pub deadline: Duration,
    /// Seed for the frame stream.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            n_tx: 8,
            n_rx: 8,
            modulation: Modulation::Qam4,
            snr_grid_db: vec![6.0, 10.0, 14.0],
            n_requests: 1000,
            offered_rate_hz: 0.0,
            deadline: REAL_TIME_BUDGET,
            seed: 0x5EC0DE,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Responses collected.
    pub served: u64,
    /// Wall-clock of the whole run (submission through drain).
    pub wall: Duration,
    /// Served responses per second of wall-clock.
    pub throughput_hz: f64,
    /// Exact median end-to-end latency in µs (from per-response samples,
    /// not histogram buckets).
    pub p50_latency_us: f64,
    /// Exact 99th-percentile end-to-end latency in µs.
    pub p99_latency_us: f64,
    /// Fraction of served responses that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Served count per registry tier, in ladder order (label, count).
    pub tiers: Vec<(Arc<str>, u64)>,
    /// Bit errors across served responses (ground truth known here).
    pub bit_errors: u64,
    /// Total information bits across served responses.
    pub total_bits: u64,
    /// Aggregated decoder instrumentation (via [`DetectionStats`] `Sum`).
    pub stats: DetectionStats,
    /// Runtime metrics at the end of the run.
    pub snapshot: MetricsSnapshot,
}

impl LoadReport {
    /// Bit error rate over served traffic.
    pub fn ber(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.total_bits as f64
        }
    }

    /// Served count of the tier labelled `label` (0 if absent).
    pub fn tier_count(&self, label: &str) -> u64 {
        self.tiers
            .iter()
            .find(|(l, _)| &**l == label)
            .map_or(0, |&(_, n)| n)
    }

    /// Fraction of served responses the anytime engine truncated at its
    /// decode budget (0 with anytime off — the reactive ladder never
    /// truncates).
    pub fn truncated_rate(&self) -> f64 {
        if self.snapshot.served == 0 {
            0.0
        } else {
            self.snapshot.budget_exhausted as f64 / self.snapshot.served as f64
        }
    }
}

/// Build the deterministic request stream for a config.
pub fn build_requests(cfg: &LoadConfig, constellation: &Constellation) -> Vec<DetectionRequest> {
    assert!(!cfg.snr_grid_db.is_empty(), "SNR grid must be non-empty");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.n_requests)
        .map(|i| {
            let snr = cfg.snr_grid_db[i % cfg.snr_grid_db.len()];
            let sigma2 = noise_variance(snr, cfg.n_tx);
            let frame = FrameData::generate(cfg.n_rx, cfg.n_tx, constellation, sigma2, &mut rng);
            DetectionRequest::new(i as u64, frame, snr, cfg.deadline)
        })
        .collect()
}

/// Build a deterministic **channel-coherent** request stream: requests
/// come in coherence blocks of `block` consecutive arrivals that share one
/// Rayleigh channel `H`, each a fresh symbol vector sent through that
/// channel with fresh noise (as [`ResourceGrid`] builds its blocks),
/// cycling the SNR mixture per block. This is the traffic shape affinity
/// routing and the per-shard [`crate::prep_cache`] are built for — every
/// request in a block hashes to the same shard and, after the leader's
/// miss, hits its cached factorization. `block = 1` is exactly
/// [`build_requests`]' i.i.d. stream.
pub fn build_coherent_requests(
    cfg: &LoadConfig,
    block: usize,
    constellation: &Constellation,
) -> Vec<DetectionRequest> {
    assert!(!cfg.snr_grid_db.is_empty(), "SNR grid must be non-empty");
    assert!(block >= 1, "coherence block must be at least 1");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut channel = None;
    (0..cfg.n_requests)
        .map(|i| {
            let snr = cfg.snr_grid_db[(i / block) % cfg.snr_grid_db.len()];
            let sigma2 = noise_variance(snr, cfg.n_tx);
            if i % block == 0 {
                channel = Some(Channel::rayleigh(cfg.n_rx, cfg.n_tx, &mut rng));
            }
            let ch = channel.as_ref().expect("set at the block's first request");
            let tx = TxFrame::random(cfg.n_tx, constellation, &mut rng);
            let y = ch.transmit(&tx.symbols, sigma2, &mut rng);
            let frame = FrameData {
                h: ch.matrix().clone(),
                y,
                noise_variance: sigma2,
                tx,
            };
            DetectionRequest::new(i as u64, frame, snr, cfg.deadline)
        })
        .collect()
}

/// Offer `cfg.n_requests` requests to `rt` at the configured rate, drain
/// all responses, and reduce to a [`LoadReport`]. The runtime is left
/// running (callers own shutdown).
pub fn run_load(rt: &ServeRuntime, cfg: &LoadConfig, constellation: &Constellation) -> LoadReport {
    run_request_stream(
        rt,
        build_requests(cfg, constellation),
        cfg.offered_rate_hz,
        constellation,
    )
}

/// Offer a pre-built request stream at `offered_rate_hz` (0 = firehose),
/// drain all responses, and reduce to a [`LoadReport`]. This is the
/// per-vector arm of the frame-vs-vector comparison: feed it
/// [`explode_frames`] of the same grid traffic the frame arm replays.
pub fn run_request_stream(
    rt: &ServeRuntime,
    requests: Vec<DetectionRequest>,
    offered_rate_hz: f64,
    constellation: &Constellation,
) -> LoadReport {
    let offered = requests.len() as u64;
    let period = if offered_rate_hz > 0.0 {
        Some(Duration::from_secs_f64(1.0 / offered_rate_hz))
    } else {
        None
    };

    let mut responses: Vec<DetectionResponse> = Vec::with_capacity(requests.len());
    let mut shed = 0u64;
    let t0 = Instant::now();
    let mut next_arrival = t0;
    for req in requests {
        if let Some(period) = period {
            // Open-loop pacing: wait for the virtual arrival instant,
            // harvesting finished responses instead of sleeping.
            while Instant::now() < next_arrival {
                match rt.try_collect() {
                    Some(r) => responses.push(r),
                    None => std::hint::spin_loop(),
                }
            }
            next_arrival += period;
        }
        if rt.submit(req).is_err() {
            shed += 1;
        }
        while let Some(r) = rt.try_collect() {
            responses.push(r);
        }
    }
    // Drain the tail.
    let mut last_progress = Instant::now();
    while (responses.len() as u64) + shed < offered {
        match rt.collect_timeout(Duration::from_millis(20)) {
            Some(r) => {
                responses.push(r);
                last_progress = Instant::now();
            }
            None => {
                assert!(
                    last_progress.elapsed() < Duration::from_secs(10),
                    "runtime stalled: {} of {} responses after shedding {}",
                    responses.len(),
                    offered,
                    shed
                );
            }
        }
    }
    let wall = t0.elapsed();

    let served = responses.len() as u64;
    let mut latencies_us: Vec<f64> = responses
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e6)
        .collect();
    latencies_us.sort_unstable_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * q).round() as usize]
        }
    };
    let missed = responses.iter().filter(|r| r.deadline_missed).count() as u64;
    let tiers: Vec<(Arc<str>, u64)> = rt
        .tier_labels()
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let n = responses.iter().filter(|r| r.tier == i).count() as u64;
            (label, n)
        })
        .collect();
    let bit_errors: u64 = responses
        .iter()
        .map(|r| {
            r.request
                .frame
                .bit_errors(&r.detection.indices, constellation)
        })
        .sum();
    let total_bits: u64 = responses
        .iter()
        .map(|r| r.request.frame.tx.bits.len() as u64)
        .sum();
    // The satellite API in action: fold every response's stats in one go.
    let stats: DetectionStats = responses.iter().map(|r| &r.detection.stats).sum();

    LoadReport {
        offered,
        shed,
        served,
        wall,
        throughput_hz: served as f64 / wall.as_secs_f64().max(1e-9),
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        deadline_miss_rate: if served == 0 {
            0.0
        } else {
            missed as f64 / served as f64
        },
        tiers,
        bit_errors,
        total_bits,
        stats,
        snapshot: rt.metrics(),
    }
}

/// Workload description for one frame-mode (resource-grid) load run.
#[derive(Clone, Debug)]
pub struct FrameLoadConfig {
    /// The resource grid to replay; each coherence block is one frame.
    pub grid: GridConfig,
    /// Constellation.
    pub modulation: Modulation,
    /// Offered frame arrival rate in frames/s; `0.0` submits as fast as
    /// the queue accepts (saturation probe).
    pub offered_rate_hz: f64,
    /// Per-frame (whole-block) deadline.
    pub deadline: Duration,
    /// Seed for the grid realization.
    pub seed: u64,
}

impl Default for FrameLoadConfig {
    fn default() -> Self {
        FrameLoadConfig {
            grid: GridConfig::new(64, 4, 4, 4).with_coherence(16, 4),
            modulation: Modulation::Qam4,
            offered_rate_hz: 0.0,
            deadline: REAL_TIME_BUDGET,
            seed: 0xF4A3E,
        }
    }
}

/// Outcome of one frame-mode load run.
#[derive(Clone, Debug)]
pub struct FrameLoadReport {
    /// Frames offered.
    pub offered_frames: u64,
    /// Frames shed at admission.
    pub shed_frames: u64,
    /// Frame responses collected.
    pub served_frames: u64,
    /// Subcarriers decoded across served frames.
    pub subcarriers: u64,
    /// Wall-clock of the whole run (submission through drain).
    pub wall: Duration,
    /// Served *subcarriers* per second of wall-clock — directly
    /// comparable to [`LoadReport::throughput_hz`] on exploded traffic.
    pub throughput_hz: f64,
    /// Exact median frame end-to-end latency in µs.
    pub p50_latency_us: f64,
    /// Exact 99th-percentile frame end-to-end latency in µs.
    pub p99_latency_us: f64,
    /// Fraction of served frames that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Served frame count per registry tier, in ladder order.
    pub tiers: Vec<(Arc<str>, u64)>,
    /// Bit errors across served subcarriers (ground truth known here).
    pub bit_errors: u64,
    /// Total information bits across served subcarriers.
    pub total_bits: u64,
    /// Channel preparations across served frames.
    pub prep_factors: u64,
    /// Aggregated decoder instrumentation.
    pub stats: DetectionStats,
    /// Runtime metrics at the end of the run.
    pub snapshot: MetricsSnapshot,
}

impl FrameLoadReport {
    /// Bit error rate over served traffic.
    pub fn ber(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.total_bits as f64
        }
    }

    /// Subcarriers served per channel preparation.
    pub fn prep_amortization(&self) -> f64 {
        if self.prep_factors == 0 {
            0.0
        } else {
            self.subcarriers as f64 / self.prep_factors as f64
        }
    }

    /// Fraction of served subcarriers the anytime engine truncated at
    /// its decode budget (0 with anytime off).
    pub fn truncated_rate(&self) -> f64 {
        if self.snapshot.served == 0 {
            0.0
        } else {
            self.snapshot.budget_exhausted as f64 / self.snapshot.served as f64
        }
    }
}

/// Build the deterministic frame stream for a config: one
/// [`FrameRequest`] per coherence block of the generated grid, in traffic
/// order, at the block's mean ripple SNR.
pub fn build_frame_requests(
    cfg: &FrameLoadConfig,
    constellation: &Constellation,
) -> Vec<FrameRequest> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let grid = ResourceGrid::generate(&cfg.grid, constellation, &mut rng);
    grid.blocks
        .into_iter()
        .enumerate()
        .map(|(i, b)| FrameRequest::new(i as u64, b.frames, b.snr_db, cfg.deadline))
        .collect()
}

/// Flatten a frame stream into the identical per-vector request stream:
/// same subcarriers in the same order, each carrying its frame's SNR
/// operating point and deadline. The control arm of the frame-vs-vector
/// benchmark submits exactly this.
pub fn explode_frames(frames: &[FrameRequest]) -> Vec<DetectionRequest> {
    let mut id = 0u64;
    let mut out = Vec::with_capacity(frames.iter().map(FrameRequest::block_len).sum());
    for fr in frames {
        for f in &fr.subcarriers {
            out.push(DetectionRequest::new(id, f.clone(), fr.snr_db, fr.deadline));
            id += 1;
        }
    }
    out
}

/// Offer the config's frame stream to `rt` at the configured rate, drain
/// all frame responses, and reduce to a [`FrameLoadReport`]. The runtime
/// is left running (callers own shutdown).
pub fn run_frame_load(
    rt: &ServeRuntime,
    cfg: &FrameLoadConfig,
    constellation: &Constellation,
) -> FrameLoadReport {
    let requests = build_frame_requests(cfg, constellation);
    let offered = requests.len() as u64;
    let period = if cfg.offered_rate_hz > 0.0 {
        Some(Duration::from_secs_f64(1.0 / cfg.offered_rate_hz))
    } else {
        None
    };

    let mut responses: Vec<FrameResponse> = Vec::with_capacity(requests.len());
    let mut shed = 0u64;
    let t0 = Instant::now();
    let mut next_arrival = t0;
    for req in requests {
        if let Some(period) = period {
            while Instant::now() < next_arrival {
                match rt.try_collect_frame() {
                    Some(r) => responses.push(r),
                    None => std::hint::spin_loop(),
                }
            }
            next_arrival += period;
        }
        if rt.submit_frame(req).is_err() {
            shed += 1;
        }
        while let Some(r) = rt.try_collect_frame() {
            responses.push(r);
        }
    }
    let mut last_progress = Instant::now();
    while (responses.len() as u64) + shed < offered {
        match rt.collect_frame_timeout(Duration::from_millis(20)) {
            Some(r) => {
                responses.push(r);
                last_progress = Instant::now();
            }
            None => {
                assert!(
                    last_progress.elapsed() < Duration::from_secs(10),
                    "runtime stalled: {} of {} frames after shedding {}",
                    responses.len(),
                    offered,
                    shed
                );
            }
        }
    }
    let wall = t0.elapsed();

    let served_frames = responses.len() as u64;
    let subcarriers: u64 = responses.iter().map(|r| r.detections.len() as u64).sum();
    let mut latencies_us: Vec<f64> = responses
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e6)
        .collect();
    latencies_us.sort_unstable_by(f64::total_cmp);
    let pct = |q: f64| -> f64 {
        if latencies_us.is_empty() {
            0.0
        } else {
            latencies_us[((latencies_us.len() - 1) as f64 * q).round() as usize]
        }
    };
    let missed = responses.iter().filter(|r| r.deadline_missed).count() as u64;
    let tiers: Vec<(Arc<str>, u64)> = rt
        .tier_labels()
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let n = responses.iter().filter(|r| r.tier == i).count() as u64;
            (label, n)
        })
        .collect();
    let mut bit_errors = 0u64;
    let mut total_bits = 0u64;
    for r in &responses {
        for (f, d) in r.request.subcarriers.iter().zip(r.detections.iter()) {
            bit_errors += f.bit_errors(&d.indices, constellation);
            total_bits += f.tx.bits.len() as u64;
        }
    }
    let prep_factors: u64 = responses.iter().map(|r| r.prep_factors as u64).sum();
    let stats: DetectionStats = responses
        .iter()
        .flat_map(|r| r.detections.iter().map(|d| &d.stats))
        .sum();

    FrameLoadReport {
        offered_frames: offered,
        shed_frames: shed,
        served_frames,
        subcarriers,
        wall,
        throughput_hz: subcarriers as f64 / wall.as_secs_f64().max(1e-9),
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        deadline_miss_rate: if served_frames == 0 {
            0.0
        } else {
            missed as f64 / served_frames as f64
        },
        tiers,
        bit_errors,
        total_bits,
        prep_factors,
        stats,
        snapshot: rt.metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ServeConfig;

    #[test]
    fn request_stream_is_deterministic() {
        let cfg = LoadConfig {
            n_requests: 6,
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let a = build_requests(&cfg, &c);
        let b = build_requests(&cfg, &c);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.snr_db, y.snr_db);
            assert_eq!(x.frame.tx.indices, y.frame.tx.indices);
            assert_eq!(x.frame.y, y.frame.y);
        }
        // The SNR mixture cycles.
        assert_eq!(a[0].snr_db, 6.0);
        assert_eq!(a[1].snr_db, 10.0);
        assert_eq!(a[3].snr_db, 6.0);
    }

    #[test]
    fn coherent_stream_repeats_channels_in_blocks() {
        let cfg = LoadConfig {
            n_tx: 4,
            n_rx: 4,
            n_requests: 12,
            snr_grid_db: vec![6.0, 14.0],
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let a = build_coherent_requests(&cfg, 4, &c);
        let b = build_coherent_requests(&cfg, 4, &c);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.frame.h == y.frame.h && x.frame.y == y.frame.y, "seeded");
        }
        for blk in a.chunks(4) {
            for r in &blk[1..] {
                assert!(r.frame.h == blk[0].frame.h, "block shares the leader H");
                assert!(r.frame.y != blk[0].frame.y, "fresh observation per request");
                assert_eq!(r.snr_db, blk[0].snr_db, "one operating point per block");
            }
        }
        assert!(a[0].frame.h != a[4].frame.h, "fresh H per block");
        assert_eq!(a[0].snr_db, 6.0);
        assert_eq!(a[4].snr_db, 14.0, "SNR mixture cycles per block");
        // block = 1 is exactly the i.i.d. stream.
        let iid = build_coherent_requests(&cfg, 1, &c);
        for (x, y) in iid.iter().zip(build_requests(&cfg, &c).iter()) {
            assert!(x.frame.h == y.frame.h && x.frame.y == y.frame.y);
        }
    }

    /// Mean of `‖y − H·x‖² / σ²` over `frames`: `n_rx` in expectation
    /// when every `y` was sent through its own `H`.
    fn mean_normalized_residual<'a>(frames: impl Iterator<Item = &'a FrameData>) -> f64 {
        let (mut acc, mut n) = (0.0, 0usize);
        for f in frames {
            let hx = f.h.mul_vec(&f.tx.symbols);
            let r: f64 = f.y.iter().zip(&hx).map(|(y, h)| (*y - *h).norm_sqr()).sum();
            acc += r / f.noise_variance;
            n += 1;
        }
        acc / n as f64
    }

    /// Every generator sends each `y` through the `H` it hands the
    /// detector: the normalized residual averages `n_rx` (within 2%, the
    /// benchmark's workload gate). A follower built from the leader's `H`
    /// but another channel's `y` averages far above it.
    #[test]
    fn generators_send_y_through_their_own_channel() {
        let cfg = LoadConfig {
            n_requests: 8192,
            snr_grid_db: vec![6.0, 10.0, 14.0],
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let n_rx = cfg.n_rx as f64;
        let within = |mean: f64| (mean - n_rx).abs() <= 0.02 * n_rx;
        let iid = mean_normalized_residual(build_requests(&cfg, &c).iter().map(|r| &r.frame));
        assert!(within(iid), "build_requests: {iid}");
        let coh = build_coherent_requests(&cfg, 16, &c);
        let mean = mean_normalized_residual(coh.iter().map(|r| &r.frame));
        assert!(within(mean), "build_coherent_requests: {mean}");
        let fcfg = FrameLoadConfig {
            grid: GridConfig::new(64, 32, 8, 8).with_coherence(16, 4),
            ..Default::default()
        };
        let frames = build_frame_requests(&fcfg, &c);
        let mean = mean_normalized_residual(frames.iter().flat_map(|f| &f.subcarriers));
        assert!(within(mean), "build_frame_requests: {mean}");
        // The gate has teeth: the leader's H with another channel's y.
        let mismatched: Vec<FrameData> = coh
            .windows(2)
            .filter(|w| w[0].frame.h != w[1].frame.h)
            .map(|w| FrameData {
                h: w[0].frame.h.clone(),
                ..w[1].frame.clone()
            })
            .collect();
        let bad = mean_normalized_residual(mismatched.iter());
        assert!(!within(bad), "mismatched traffic must fail: {bad}");
    }

    #[test]
    fn frame_stream_is_deterministic_and_explodes_in_order() {
        let cfg = FrameLoadConfig {
            grid: GridConfig::new(8, 2, 2, 2).with_coherence(4, 2),
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let a = build_frame_requests(&cfg, &c);
        let b = build_frame_requests(&cfg, &c);
        assert_eq!(a.len(), 2, "two frequency blocks x one time block");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.snr_db, y.snr_db);
            for (fx, fy) in x.subcarriers.iter().zip(y.subcarriers.iter()) {
                assert!(fx.h == fy.h && fx.y == fy.y);
            }
        }
        let exploded = explode_frames(&a);
        assert_eq!(exploded.len(), 16);
        let mut k = 0;
        for fr in &a {
            for f in &fr.subcarriers {
                assert_eq!(exploded[k].id, k as u64);
                assert!(exploded[k].frame.y == f.y, "order preserved at {k}");
                assert_eq!(exploded[k].snr_db, fr.snr_db);
                k += 1;
            }
        }
    }

    #[test]
    fn firehose_frame_run_serves_everything() {
        let cfg = FrameLoadConfig {
            grid: GridConfig::new(16, 2, 4, 4)
                .with_coherence(8, 2)
                .with_snr(12.0, 0.0),
            deadline: Duration::from_secs(1),
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(16),
            c.clone(),
        );
        let report = run_frame_load(&rt, &cfg, &c);
        rt.shutdown();
        assert_eq!(report.offered_frames, 2);
        assert_eq!(report.shed_frames, 0);
        assert_eq!(report.served_frames, 2);
        assert_eq!(report.subcarriers, 32);
        assert_eq!(report.prep_factors, 2, "one QR per coherence block");
        assert!((report.prep_amortization() - 16.0).abs() < 1e-12);
        assert!(report.throughput_hz > 0.0);
        assert_eq!(report.total_bits, 32 * 4 * 2, "4 tx antennas x 2 bits each");
        let total: u64 = report.tiers.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2, "every frame attributed to a tier");
    }

    #[test]
    fn firehose_run_serves_everything() {
        let cfg = LoadConfig {
            n_tx: 4,
            n_rx: 4,
            n_requests: 60,
            snr_grid_db: vec![12.0],
            ..Default::default()
        };
        let c = Constellation::new(cfg.modulation);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(cfg.n_requests),
            c.clone(),
        );
        let report = run_load(&rt, &cfg, &c);
        rt.shutdown();
        assert_eq!(report.offered, 60);
        assert_eq!(report.shed, 0, "queue sized for the whole run");
        assert_eq!(report.served, 60);
        let total: u64 = report.tiers.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 60, "every response attributed to a tier");
        assert!(report.throughput_hz > 0.0);
        assert!(report.p99_latency_us >= report.p50_latency_us);
        assert!(report.stats.nodes_generated > 0);
        assert_eq!(report.total_bits, 60 * 8);
    }
}
