//! MIMO-OFDM multicarrier layer.
//!
//! Wideband systems (the 802.11/LTE deployments the paper's introduction
//! motivates) split the band into subcarriers; each subcarrier sees its
//! own narrowband MIMO channel and is detected independently — which is
//! exactly the data parallelism the paper's second-pipeline / multi-PE
//! directions want to exploit. This module models an OFDM symbol as a
//! bank of per-subcarrier [`FrameData`] problems with configurable
//! frequency coherence (adjacent subcarriers sharing one fading
//! realization), and decodes them serially or with rayon.

use crate::channel::Channel;
use crate::constellation::Constellation;
use crate::frame::{FrameData, TxFrame};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of one OFDM symbol.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OfdmConfig {
    /// Number of data subcarriers.
    pub subcarriers: usize,
    /// Transmit antennas per subcarrier.
    pub n_tx: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// Subcarriers sharing one channel realization (frequency coherence;
    /// 1 = fully frequency-selective, `subcarriers` = flat fading).
    pub coherence: usize,
}

impl OfdmConfig {
    /// Validate and build.
    pub fn new(subcarriers: usize, n_tx: usize, n_rx: usize, coherence: usize) -> Self {
        assert!(subcarriers > 0, "need at least one subcarrier");
        assert!(coherence >= 1, "coherence must be at least 1");
        assert!(n_rx >= n_tx && n_tx > 0, "need n_rx >= n_tx > 0");
        OfdmConfig {
            subcarriers,
            n_tx,
            n_rx,
            coherence,
        }
    }

    /// Information bits carried by one OFDM symbol.
    pub fn bits_per_symbol(&self, constellation: &Constellation) -> usize {
        self.subcarriers * self.n_tx * constellation.bits_per_symbol()
    }
}

/// One OFDM symbol: a bank of per-subcarrier detection problems.
#[derive(Clone, Debug)]
pub struct OfdmSymbol {
    /// Per-subcarrier frames, subcarrier order.
    pub frames: Vec<FrameData>,
}

impl OfdmSymbol {
    /// Generate one OFDM symbol worth of traffic.
    pub fn generate<R: Rng + ?Sized>(
        cfg: &OfdmConfig,
        constellation: &Constellation,
        noise_variance: f64,
        rng: &mut R,
    ) -> Self {
        let mut frames = Vec::with_capacity(cfg.subcarriers);
        let mut channel: Option<Channel> = None;
        for k in 0..cfg.subcarriers {
            if k % cfg.coherence == 0 {
                channel = Some(Channel::rayleigh(cfg.n_rx, cfg.n_tx, rng));
            }
            let ch = channel.as_ref().expect("set on first subcarrier");
            let tx = TxFrame::random(cfg.n_tx, constellation, rng);
            let y = ch.transmit(&tx.symbols, noise_variance, rng);
            frames.push(FrameData {
                h: ch.matrix().clone(),
                y,
                noise_variance,
                tx,
            });
        }
        OfdmSymbol { frames }
    }

    /// Decode every subcarrier serially with `decode`; returns
    /// `(bit errors, total bits)`.
    ///
    /// The closure receives `(frame, new_channel)`: `new_channel` is true
    /// exactly when the subcarrier starts a new coherence run (its `H`
    /// differs from the previous subcarrier's). A decoder holding a
    /// `ChannelPrep`-style factor/apply split factors only when the flag
    /// fires and replays `Qᴴy` otherwise, so each distinct channel is
    /// factored **once** instead of once per subcarrier.
    pub fn decode_serial<D>(&self, constellation: &Constellation, mut decode: D) -> (u64, u64)
    where
        D: FnMut(&FrameData, bool) -> Vec<usize>,
    {
        let mut errs = 0u64;
        let mut bits = 0u64;
        for run in self.coherence_runs() {
            for (i, f) in self.frames[run].iter().enumerate() {
                let d = decode(f, i == 0);
                errs += f.bit_errors(&d, constellation);
                bits += f.tx.bits.len() as u64;
            }
        }
        (errs, bits)
    }

    /// Decode in parallel with rayon — the software analogue of fanning
    /// subcarriers over FPGA pipelines. Parallelism is over **coherence
    /// runs** (not individual subcarriers), each run decoded serially with
    /// the same `(frame, new_channel)` protocol as
    /// [`OfdmSymbol::decode_serial`], so per-run channel-prep amortization
    /// survives the fan-out.
    pub fn decode_parallel<D>(&self, constellation: &Constellation, decode: D) -> (u64, u64)
    where
        D: Fn(&FrameData, bool) -> Vec<usize> + Sync,
    {
        let runs = self.coherence_runs();
        runs.par_iter()
            .map(|run| {
                let mut errs = 0u64;
                let mut bits = 0u64;
                for (i, f) in self.frames[run.clone()].iter().enumerate() {
                    let d = decode(f, i == 0);
                    errs += f.bit_errors(&d, constellation);
                    bits += f.tx.bits.len() as u64;
                }
                (errs, bits)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Maximal runs of consecutive subcarriers sharing one channel
    /// realization, in subcarrier order.
    pub fn coherence_runs(&self) -> Vec<std::ops::Range<usize>> {
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for (k, f) in self.frames.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if self.frames[run.start].h.approx_eq(&f.h, 0.0) => run.end = k + 1,
                _ => runs.push(k..k + 1),
            }
        }
        runs
    }

    /// Distinct channel realizations in this symbol.
    pub fn distinct_channels(&self) -> usize {
        self.coherence_runs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn symbol(subcarriers: usize, coherence: usize, sigma2: f64) -> (Constellation, OfdmSymbol) {
        let c = Constellation::new(Modulation::Qam4);
        let cfg = OfdmConfig::new(subcarriers, 4, 4, coherence);
        let mut rng = StdRng::seed_from_u64(500);
        let s = OfdmSymbol::generate(&cfg, &c, sigma2, &mut rng);
        (c, s)
    }

    /// Every subcarrier's `y` went through its coherence run's `H`: the
    /// normalized residual averages `n_rx` within 2%. Pairing each run's
    /// `y` with the previous run's `H` must fail the same gate.
    #[test]
    fn symbol_sends_y_through_its_own_channel() {
        use crate::frame::mean_normalized_residual;
        let c = Constellation::new(Modulation::Qam4);
        let cfg = OfdmConfig::new(16384, 8, 8, 64);
        let mut rng = StdRng::seed_from_u64(0x0FD3);
        let s = OfdmSymbol::generate(&cfg, &c, 0.05, &mut rng);
        let within = |mean: f64| (mean - 8.0).abs() <= 0.02 * 8.0;
        let mean = mean_normalized_residual(s.frames.iter());
        assert!(within(mean), "{mean}");
        let mismatched: Vec<FrameData> = s
            .frames
            .iter()
            .zip(s.frames.iter().skip(64))
            .map(|(earlier, f)| FrameData {
                h: earlier.h.clone(),
                ..f.clone()
            })
            .collect();
        let bad = mean_normalized_residual(mismatched.iter());
        assert!(!within(bad), "mismatched traffic must fail: {bad}");
    }

    #[test]
    fn symbol_has_one_frame_per_subcarrier() {
        let (_, s) = symbol(16, 4, 0.1);
        assert_eq!(s.frames.len(), 16);
    }

    #[test]
    fn coherence_shares_channels() {
        let (_, s) = symbol(16, 4, 0.1);
        assert_eq!(s.distinct_channels(), 4);
        let (_, flat) = symbol(16, 16, 0.1);
        assert_eq!(flat.distinct_channels(), 1);
        let (_, selective) = symbol(16, 1, 0.1);
        assert_eq!(selective.distinct_channels(), 16);
    }

    #[test]
    fn genie_decode_counts_all_bits() {
        let (c, s) = symbol(8, 2, 0.05);
        let (errs, bits) = s.decode_serial(&c, |f, _| f.tx.indices.clone());
        assert_eq!(errs, 0);
        assert_eq!(bits, 8 * 4 * 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let (c, s) = symbol(24, 3, 0.5);
        // A deterministic sub-optimal decoder: slice y element-wise.
        let decode = |f: &FrameData, _new: bool| -> Vec<usize> {
            let c = Constellation::new(Modulation::Qam4);
            (0..f.tx.n_tx()).map(|i| c.slice(f.y[i])).collect()
        };
        let serial = s.decode_serial(&c, decode);
        let parallel = s.decode_parallel(&c, decode);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn coherence_runs_partition_the_symbol_in_order() {
        let (_, s) = symbol(16, 4, 0.1);
        let runs = s.coherence_runs();
        assert_eq!(runs.len(), 4);
        let mut next = 0usize;
        for run in &runs {
            assert_eq!(run.start, next, "runs must tile the symbol");
            assert_eq!(run.len(), 4);
            next = run.end;
        }
        assert_eq!(next, 16);
    }

    #[test]
    fn new_channel_flag_fires_once_per_distinct_channel() {
        // The amortization contract: a caller factoring only on the flag
        // performs exactly `distinct_channels()` factorizations, and every
        // frame it replays against belongs to the factored channel.
        let (c, s) = symbol(20, 5, 0.1);
        let mut factored: Option<sd_math::Matrix<f64>> = None;
        let mut factorizations = 0usize;
        s.decode_serial(&c, |f, new_channel| {
            if new_channel {
                factored = Some(f.h.clone());
                factorizations += 1;
            }
            let h = factored.as_ref().expect("first frame flags a new channel");
            assert!(h.approx_eq(&f.h, 0.0), "replay against a stale channel");
            f.tx.indices.clone()
        });
        assert_eq!(factorizations, s.distinct_channels());
    }

    #[test]
    fn bits_per_symbol_formula() {
        let c = Constellation::new(Modulation::Qam16);
        let cfg = OfdmConfig::new(64, 4, 4, 8);
        assert_eq!(cfg.bits_per_symbol(&c), 64 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "coherence must be at least 1")]
    fn zero_coherence_rejected() {
        OfdmConfig::new(8, 2, 2, 0);
    }
}
