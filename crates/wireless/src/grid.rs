//! LTE-like resource-grid traffic model.
//!
//! A resource grid is the production workload shape for MIMO detection:
//! `subcarriers × symbols` detection problems whose channels are coherent
//! over tiles of the grid — the channel is re-estimated once per
//! time/frequency coherence block, and every receive vector inside the
//! block shares that one `H`. The serve layer's frame path exploits
//! exactly this: one [`CoherenceBlock`] becomes one frame request, and one
//! QR factorization serves the whole block.
//!
//! Beyond the flat [`crate::ofdm`] symbol this adds the pieces of a
//! realistic wideband setup: coherence in *time* as well as frequency,
//! per-subcarrier SNR variation (a deterministic frequency-selective power
//! ripple), and spatially correlated channels through
//! [`ChannelModel::KroneckerExponential`].

use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::frame::{FrameData, TxFrame};
use crate::models::ChannelModel;
use crate::snr::noise_variance;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of one resource grid.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// Data subcarriers (frequency axis).
    pub subcarriers: usize,
    /// OFDM symbols (time axis).
    pub symbols: usize,
    /// Transmit antennas per resource element.
    pub n_tx: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// Subcarriers sharing one channel realization (frequency coherence).
    pub coherence_freq: usize,
    /// Symbols sharing one channel realization (time coherence).
    pub coherence_time: usize,
    /// Fading model each coherence block's channel is drawn from.
    pub model: ChannelModel,
    /// Mean operating SNR in dB.
    pub snr_db: f64,
    /// Peak deviation of the per-subcarrier SNR ripple in dB
    /// (0 = flat). Subcarrier `k` operates at
    /// `snr_db + ripple·sin(2πk / subcarriers)` — a deterministic
    /// frequency-selective power profile.
    pub snr_ripple_db: f64,
}

impl GridConfig {
    /// Grid of `subcarriers × symbols` resource elements over an
    /// `n_rx × n_tx` link, with flat SNR, no coherence (every element its
    /// own channel), and i.i.d. fading. Builder methods refine from here.
    pub fn new(subcarriers: usize, symbols: usize, n_tx: usize, n_rx: usize) -> Self {
        assert!(subcarriers > 0 && symbols > 0, "need a non-empty grid");
        assert!(n_rx >= n_tx && n_tx > 0, "need n_rx >= n_tx > 0");
        GridConfig {
            subcarriers,
            symbols,
            n_tx,
            n_rx,
            coherence_freq: 1,
            coherence_time: 1,
            model: ChannelModel::Iid,
            snr_db: 10.0,
            snr_ripple_db: 0.0,
        }
    }

    /// Set the coherence tile: `freq` subcarriers × `time` symbols share
    /// one channel realization.
    pub fn with_coherence(mut self, freq: usize, time: usize) -> Self {
        assert!(freq >= 1 && time >= 1, "coherence must be at least 1");
        self.coherence_freq = freq;
        self.coherence_time = time;
        self
    }

    /// Set the fading model.
    pub fn with_model(mut self, model: ChannelModel) -> Self {
        self.model = model;
        self
    }

    /// Set the mean SNR and the per-subcarrier ripple amplitude (dB).
    pub fn with_snr(mut self, snr_db: f64, ripple_db: f64) -> Self {
        assert!(ripple_db >= 0.0, "ripple amplitude must be non-negative");
        self.snr_db = snr_db;
        self.snr_ripple_db = ripple_db;
        self
    }

    /// Operating SNR of subcarrier `k` under the ripple profile.
    pub fn subcarrier_snr_db(&self, k: usize) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * k as f64 / self.subcarriers as f64;
        self.snr_db + self.snr_ripple_db * phase.sin()
    }

    /// Coherence blocks along the frequency axis (last may be short).
    pub fn freq_blocks(&self) -> usize {
        self.subcarriers.div_ceil(self.coherence_freq)
    }

    /// Coherence blocks along the time axis (last may be short).
    pub fn time_blocks(&self) -> usize {
        self.symbols.div_ceil(self.coherence_time)
    }
}

/// One coherence block: every frame shares a single channel realization
/// (bit-identical `H` clones), in `(symbol, subcarrier)` order.
#[derive(Clone, Debug)]
pub struct CoherenceBlock {
    /// The block's detection problems; all `h` fields are clones of one
    /// realization.
    pub frames: Vec<FrameData>,
    /// Mean operating SNR over the block's subcarriers — the ladder
    /// operating point a serving layer should use for the whole block.
    pub snr_db: f64,
}

impl CoherenceBlock {
    /// Subcarrier-symbols (resource elements) in this block.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the block is empty (never produced by generation).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// One generated resource grid: coherence blocks in traffic order
/// (time-block major, frequency-block minor).
#[derive(Clone, Debug)]
pub struct ResourceGrid {
    /// The grid's coherence blocks.
    pub blocks: Vec<CoherenceBlock>,
    /// The configuration the grid was generated from.
    pub config: GridConfig,
}

impl ResourceGrid {
    /// Generate one grid of traffic. Each coherence block draws a fresh
    /// channel from `config.model`; each resource element in the block
    /// transmits an independent random symbol vector through it at that
    /// subcarrier's ripple SNR. Deterministic for a fixed seed.
    pub fn generate<R: Rng + ?Sized>(
        config: &GridConfig,
        constellation: &Constellation,
        rng: &mut R,
    ) -> Self {
        let mut blocks = Vec::with_capacity(config.freq_blocks() * config.time_blocks());
        for tb in 0..config.time_blocks() {
            let t0 = tb * config.coherence_time;
            let t1 = (t0 + config.coherence_time).min(config.symbols);
            for fb in 0..config.freq_blocks() {
                let k0 = fb * config.coherence_freq;
                let k1 = (k0 + config.coherence_freq).min(config.subcarriers);
                let ch: Channel = config.model.realize(config.n_rx, config.n_tx, rng);
                let mut frames = Vec::with_capacity((t1 - t0) * (k1 - k0));
                let mut snr_acc = 0.0;
                for _t in t0..t1 {
                    for k in k0..k1 {
                        let snr = config.subcarrier_snr_db(k);
                        snr_acc += snr;
                        let sigma2 = noise_variance(snr, config.n_tx);
                        let tx = TxFrame::random(config.n_tx, constellation, rng);
                        let y = ch.transmit(&tx.symbols, sigma2, rng);
                        frames.push(FrameData {
                            h: ch.matrix().clone(),
                            y,
                            noise_variance: sigma2,
                            tx,
                        });
                    }
                }
                let snr_db = snr_acc / frames.len() as f64;
                blocks.push(CoherenceBlock { frames, snr_db });
            }
        }
        ResourceGrid {
            blocks,
            config: *config,
        }
    }

    /// Total resource elements (detection problems) in the grid.
    pub fn total_elements(&self) -> usize {
        self.blocks.iter().map(CoherenceBlock::len).sum()
    }

    /// Distinct channel realizations — one per coherence block.
    pub fn distinct_channels(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(cfg: &GridConfig, seed: u64) -> ResourceGrid {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(seed);
        ResourceGrid::generate(cfg, &c, &mut rng)
    }

    /// Every resource element's `y` went through its block's `H` at its
    /// subcarrier's `σ²`: the normalized residual averages `n_rx` within
    /// 2%, for i.i.d. and Kronecker fading under SNR ripple, at the shapes
    /// the benchmark grids use. Pairing each block's `y` with the next
    /// block's `H` must fail the same gate.
    #[test]
    fn grid_sends_y_through_its_own_channel() {
        use crate::frame::mean_normalized_residual;
        let kronecker = ChannelModel::KroneckerExponential {
            rho_tx: 0.5,
            rho_rx: 0.3,
        };
        for (n_tx, n_rx, coherence, ripple_db) in [(8, 8, 64, 3.0), (16, 18, 16, 0.0)] {
            for model in [ChannelModel::Iid, kronecker] {
                let cfg = GridConfig::new(coherence, 8192 / coherence, n_tx, n_rx)
                    .with_coherence(coherence, 1)
                    .with_model(model)
                    .with_snr(10.0, ripple_db);
                let g = grid(&cfg, 0x6E51D);
                assert_eq!(g.total_elements(), 8192);
                let within = |mean: f64| (mean - n_rx as f64).abs() <= 0.02 * n_rx as f64;
                let mean = mean_normalized_residual(g.blocks.iter().flat_map(|b| &b.frames));
                assert!(within(mean), "{n_tx}x{n_rx} {model:?}: {mean}");
                // The gate has teeth: another block's channel, this y.
                let mismatched: Vec<FrameData> = g
                    .blocks
                    .windows(2)
                    .flat_map(|w| {
                        w[1].frames.iter().map(|f| FrameData {
                            h: w[0].frames[0].h.clone(),
                            ..f.clone()
                        })
                    })
                    .collect();
                let bad = mean_normalized_residual(mismatched.iter());
                assert!(!within(bad), "{n_tx}x{n_rx} {model:?}: mismatched {bad}");
            }
        }
    }

    #[test]
    fn grid_tiles_into_the_expected_blocks() {
        let cfg = GridConfig::new(12, 4, 4, 4).with_coherence(4, 2);
        let g = grid(&cfg, 1);
        assert_eq!(g.distinct_channels(), 3 * 2);
        assert_eq!(g.total_elements(), 12 * 4);
        for b in &g.blocks {
            assert_eq!(b.len(), 4 * 2);
        }
    }

    #[test]
    fn ragged_tiles_cover_the_grid() {
        // 10 subcarriers at coherence 4 -> blocks of 4, 4, 2.
        let cfg = GridConfig::new(10, 3, 2, 2).with_coherence(4, 2);
        let g = grid(&cfg, 2);
        assert_eq!(g.distinct_channels(), 3 * 2);
        assert_eq!(g.total_elements(), 10 * 3);
    }

    #[test]
    fn blocks_share_one_channel_bit_exactly() {
        let cfg = GridConfig::new(8, 4, 4, 4).with_coherence(4, 4);
        let g = grid(&cfg, 3);
        for b in &g.blocks {
            for f in &b.frames {
                assert!(f.h == b.frames[0].h, "block channel must be shared");
            }
        }
        // Different blocks draw different channels.
        assert!(g.blocks[0].frames[0].h != g.blocks[1].frames[0].h);
    }

    #[test]
    fn snr_ripple_varies_noise_across_subcarriers() {
        let cfg = GridConfig::new(16, 1, 2, 2).with_snr(12.0, 3.0);
        let g = grid(&cfg, 4);
        let sigmas: Vec<f64> = g
            .blocks
            .iter()
            .flat_map(|b| b.frames.iter().map(|f| f.noise_variance))
            .collect();
        assert_eq!(sigmas.len(), 16);
        let min = sigmas.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sigmas.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "ripple must spread the noise variances");
        // Flat profile: all subcarriers identical.
        let flat = grid(&GridConfig::new(16, 1, 2, 2).with_snr(12.0, 0.0), 4);
        let s0 = flat.blocks[0].frames[0].noise_variance;
        for b in &flat.blocks {
            assert!(b.frames.iter().all(|f| f.noise_variance == s0));
        }
    }

    #[test]
    fn block_snr_is_the_mean_of_its_subcarriers() {
        let cfg = GridConfig::new(8, 2, 2, 2)
            .with_coherence(4, 2)
            .with_snr(10.0, 2.0);
        let g = grid(&cfg, 5);
        for (i, b) in g.blocks.iter().enumerate() {
            let k0 = (i % cfg.freq_blocks()) * cfg.coherence_freq;
            let mean: f64 = (k0..k0 + 4).map(|k| cfg.subcarrier_snr_db(k)).sum::<f64>() / 4.0;
            assert!((b.snr_db - mean).abs() < 1e-12, "block {i}");
        }
    }

    #[test]
    fn kronecker_grid_generates() {
        let cfg = GridConfig::new(8, 2, 4, 4).with_coherence(4, 2).with_model(
            ChannelModel::KroneckerExponential {
                rho_tx: 0.5,
                rho_rx: 0.3,
            },
        );
        let g = grid(&cfg, 6);
        assert_eq!(g.total_elements(), 16);
        for b in &g.blocks {
            assert!(b.frames[0].h.is_finite());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GridConfig::new(8, 2, 2, 2)
            .with_coherence(2, 2)
            .with_snr(8.0, 1.0);
        let a = grid(&cfg, 7);
        let b = grid(&cfg, 7);
        assert_eq!(a.total_elements(), b.total_elements());
        for (x, y) in a.blocks.iter().zip(b.blocks.iter()) {
            for (fx, fy) in x.frames.iter().zip(y.frames.iter()) {
                assert!(fx.h == fy.h && fx.y == fy.y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need n_rx >= n_tx")]
    fn undersized_receive_array_rejected() {
        GridConfig::new(4, 1, 4, 2);
    }
}
