//! The four traffic shapes, their seeded request pools, the workload
//! sanity gate, and the runtime each is served by.
//!
//! Pools are built from `sd_wireless` generators directly
//! ([`FrameData::generate`] for i.i.d. traffic, [`ResourceGrid`] for every
//! coherent stream), never from the serve crate's load generator, and every
//! pool passes [`gate`] before anything is timed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_core::QuantizedKBestSd;
use sd_serve::{
    default_registry, DetectionRequest, FrameRequest, LadderConfig, ServeConfig, ServeRuntime,
    Tier, TierCostClass,
};
use sd_wireless::{
    noise_variance, Constellation, FrameData, GridConfig, Modulation, ResourceGrid,
    REAL_TIME_BUDGET,
};

/// How a workload's requests are shaped.
pub enum Shape {
    /// Independent vectors over fresh i.i.d. Rayleigh channels, with the
    /// operating SNR cycling through `snrs_db`.
    Iid {
        snrs_db: &'static [f64],
        pool: usize,
    },
    /// One vector per request, drawn from a resource grid whose coherence
    /// blocks are `group` subcarriers of one symbol: `group` consecutive
    /// requests share one `H`.
    Coherent {
        snr_db: f64,
        group: usize,
        channels: usize,
    },
    /// One `FrameRequest` per coherence block of `freq × time` resource
    /// elements, with a per-subcarrier SNR ripple.
    Frames {
        snr_db: f64,
        ripple_db: f64,
        freq: usize,
        time: usize,
        frames: usize,
    },
}

/// Which tier registry serves the workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Registry {
    /// The runtime's stock exact → K-best → MMSE descent.
    Stock,
    /// One rung: fixed-point K-best with K = 16, which always fuses frames.
    FxKBest16,
}

pub struct Workload {
    pub name: &'static str,
    /// Transmit streams and receive antennas (`n_rx × n_tx` channels).
    pub n_tx: usize,
    pub n_rx: usize,
    pub shape: Shape,
    pub registry: Registry,
    /// Open-loop rate in requests per second (vectors, or frames for the
    /// frame workloads). Absolute, never derived at run time: about a third
    /// of the capacity measured on the reference host, whose speed drifts
    /// by a third over minutes.
    pub rate_hz: u64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "iid8",
        n_tx: 8,
        n_rx: 8,
        shape: Shape::Iid {
            snrs_db: &[6.0, 10.0, 14.0],
            pool: 65_536,
        },
        registry: Registry::Stock,
        rate_hz: 30_000,
    },
    Workload {
        name: "coherent16",
        // Two spare receive antennas: a square 16 × 16 Rayleigh channel
        // has a heavy search tail at 30 dB (about one channel in a
        // thousand costs milliseconds per vector), which would make the
        // latency metrics a function of the few near-singular channels a
        // seed happens to draw.
        n_tx: 16,
        n_rx: 18,
        shape: Shape::Coherent {
            snr_db: 30.0,
            group: 16,
            channels: 1_024,
        },
        registry: Registry::Stock,
        rate_hz: 50_000,
    },
    Workload {
        name: "grid8_frames",
        n_tx: 8,
        n_rx: 8,
        shape: Shape::Frames {
            snr_db: 10.0,
            ripple_db: 3.0,
            freq: 16,
            time: 4,
            frames: 1_024,
        },
        registry: Registry::Stock,
        rate_hz: 600,
    },
    Workload {
        name: "grid8_fx",
        n_tx: 8,
        n_rx: 8,
        shape: Shape::Frames {
            snr_db: 10.0,
            ripple_db: 3.0,
            freq: 16,
            time: 4,
            frames: 1_024,
        },
        registry: Registry::FxKBest16,
        rate_hz: 450,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn constellation() -> Constellation {
    Constellation::new(Modulation::Qam4)
}

/// One pooled request: a single vector or a whole coherence block.
pub enum Req {
    Vector(DetectionRequest),
    Frame(FrameRequest),
}

impl Req {
    pub fn set_id(&mut self, id: u64) {
        match self {
            Req::Vector(r) => r.id = id,
            Req::Frame(f) => f.id = id,
        }
    }

    pub fn frames(&self) -> &[FrameData] {
        match self {
            Req::Vector(r) => std::slice::from_ref(&r.frame),
            Req::Frame(f) => &f.subcarriers,
        }
    }
}

impl Workload {
    pub fn is_frames(&self) -> bool {
        matches!(self.shape, Shape::Frames { .. })
    }

    /// Vectors carried by one request.
    pub fn vectors_per_request(&self) -> usize {
        match self.shape {
            Shape::Frames { freq, time, .. } => freq * time,
            _ => 1,
        }
    }

    /// Consecutive vectors that share one channel: the block the replay
    /// decodes with one shared preparation.
    pub fn coherence_group(&self) -> usize {
        match self.shape {
            Shape::Iid { .. } => 1,
            Shape::Coherent { group, .. } => group,
            Shape::Frames { freq, time, .. } => freq * time,
        }
    }

    /// Ingress capacity in queue items: at least a sixth of a second of
    /// vector traffic, or more than half a second of frames, so that a host stall
    /// makes requests late (which the metrics count) rather than shed.
    pub fn queue_capacity(&self) -> usize {
        if self.is_frames() {
            512
        } else {
            8_192
        }
    }

    /// Build the seeded request pool. Request `k` of a run is pool item
    /// `k mod len`, so the same seed offers the same input sequence.
    pub fn build_pool(&self, seed: u64) -> Vec<Req> {
        let c = constellation();
        // Decorrelate workloads run with the same seed.
        let mix = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut rng = StdRng::seed_from_u64(seed ^ mix);
        let (n_tx, n_rx) = (self.n_tx, self.n_rx);
        match self.shape {
            Shape::Iid { snrs_db, pool } => (0..pool)
                .map(|k| {
                    let snr = snrs_db[k % snrs_db.len()];
                    let sigma2 = noise_variance(snr, n_tx);
                    let f = FrameData::generate(n_rx, n_tx, &c, sigma2, &mut rng);
                    Req::Vector(DetectionRequest::new(k as u64, f, snr, REAL_TIME_BUDGET))
                })
                .collect(),
            Shape::Coherent {
                snr_db,
                group,
                channels,
            } => {
                // `group` subcarriers × 1 symbol per block; one symbol row of
                // the grid holds `per_symbol` blocks.
                let per_symbol = 4;
                let cfg = GridConfig::new(group * per_symbol, channels / per_symbol, n_tx, n_rx)
                    .with_coherence(group, 1)
                    .with_snr(snr_db, 0.0);
                let grid = ResourceGrid::generate(&cfg, &c, &mut rng);
                grid.blocks
                    .into_iter()
                    .flat_map(|b| {
                        let snr = b.snr_db;
                        b.frames.into_iter().map(move |f| (f, snr))
                    })
                    .enumerate()
                    .map(|(k, (f, snr))| {
                        Req::Vector(DetectionRequest::new(k as u64, f, snr, REAL_TIME_BUDGET))
                    })
                    .collect()
            }
            Shape::Frames {
                snr_db,
                ripple_db,
                freq,
                time,
                frames,
            } => {
                // Four frequency blocks per symbol row: 64 subcarriers.
                let per_row = 4;
                let cfg = GridConfig::new(freq * per_row, time * frames / per_row, n_tx, n_rx)
                    .with_coherence(freq, time)
                    .with_snr(snr_db, ripple_db);
                let grid = ResourceGrid::generate(&cfg, &c, &mut rng);
                grid.blocks
                    .into_iter()
                    .enumerate()
                    .map(|(k, b)| {
                        Req::Frame(FrameRequest::new(
                            k as u64,
                            b.frames,
                            b.snr_db,
                            REAL_TIME_BUDGET,
                        ))
                    })
                    .collect()
            }
        }
    }

    /// A fresh copy of the workload's tier registry (the runtime consumes
    /// one; the replay decodes through another).
    pub fn registry(&self) -> Vec<Tier> {
        let c = constellation();
        match self.registry {
            Registry::Stock => default_registry(&c, &LadderConfig::default()),
            Registry::FxKBest16 => vec![Tier::new(
                "k-best-fx",
                TierCostClass::fixed_kbest(16),
                Box::new(QuantizedKBestSd::new(c, 16)),
            )],
        }
    }

    /// Start the runtime: `workers` threads on one shard. `ladder` off
    /// decodes every request at the first rung (the capacity phase).
    pub fn start_runtime(&self, workers: usize, ladder: bool) -> ServeRuntime {
        let config = ServeConfig::default()
            .with_workers(workers)
            .with_shards(1)
            .with_queue_capacity(self.queue_capacity())
            .with_ladder(LadderConfig {
                enabled: ladder,
                ..LadderConfig::default()
            });
        ServeRuntime::start_with_registry(config, self.registry())
    }
}

/// What the sanity gate measured.
pub struct GateReport {
    /// Mean ‖y − H·x‖²/σ² over the pool; its expected value is `n_rx`.
    pub mean_residual: f64,
    pub vectors: usize,
}

/// Relative tolerance of the residual check.
const GATE_TOLERANCE: f64 = 0.02;

/// The workload sanity gate: every vector's `y` must have come through its
/// own `H` (mean normalised residual within 2% of `n_rx`), and every
/// coherent block or frame must share `H` bit for bit.
pub fn gate(w: &Workload, pool: &[Req]) -> Result<GateReport, String> {
    let mut acc = 0.0;
    let mut vectors = 0usize;
    for req in pool {
        for f in req.frames() {
            let hx = f.h.mul_vec(&f.tx.symbols);
            let r: f64 = f.y.iter().zip(&hx).map(|(y, h)| (*y - *h).norm_sqr()).sum();
            acc += r / f.noise_variance;
            vectors += 1;
        }
    }
    let mean_residual = acc / vectors.max(1) as f64;
    let n_rx = w.n_rx as f64;
    if (mean_residual - n_rx).abs() > GATE_TOLERANCE * n_rx {
        return Err(format!(
            "{}: mean ‖y − Hx‖²/σ² = {mean_residual:.4}, expected {n_rx} ± 2%",
            w.name
        ));
    }
    let same_bits =
        |a: &FrameData, b: &FrameData| {
            a.h.shape() == b.h.shape()
                && a.h.as_slice().iter().zip(b.h.as_slice()).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                })
        };
    // Pool order keeps each coherence block contiguous (a frame's
    // subcarriers, or a coherent stream's consecutive vectors).
    let vecs: Vec<&FrameData> = pool.iter().flat_map(Req::frames).collect();
    for (b, block) in vecs.chunks(w.coherence_group()).enumerate() {
        if block.iter().any(|f| !same_bits(block[0], f)) {
            return Err(format!(
                "{}: coherence block {b} does not share one H",
                w.name
            ));
        }
    }
    Ok(GateReport {
        mean_residual,
        vectors,
    })
}
