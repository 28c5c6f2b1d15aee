//! Transmit frames and one complete channel use.
//!
//! A *frame* here is one spatial-multiplexing channel use: `M` symbols
//! (one per transmit antenna), i.e. `M · log2(P)` information bits. The
//! [`FrameData`] bundle is what a detector sees: the channel estimate, the
//! noisy receive vector, and the noise variance — plus the ground truth for
//! scoring.

use crate::channel::Channel;
use crate::constellation::Constellation;
use rand::Rng;
use sd_math::{Matrix, C64};

/// Information bits and their symbol mapping for one channel use.
#[derive(Clone, Debug)]
pub struct TxFrame {
    /// MSB-first information bits, `n_tx · bits_per_symbol` of them.
    pub bits: Vec<u8>,
    /// Constellation point indices, one per transmit antenna.
    pub indices: Vec<usize>,
    /// Mapped complex symbols `s`.
    pub symbols: Vec<C64>,
}

impl TxFrame {
    /// Draw uniformly random bits and map them.
    pub fn random<R: Rng + ?Sized>(
        n_tx: usize,
        constellation: &Constellation,
        rng: &mut R,
    ) -> Self {
        let bps = constellation.bits_per_symbol();
        let bits: Vec<u8> = (0..n_tx * bps).map(|_| rng.gen_range(0..=1u8)).collect();
        Self::from_bits(&bits, constellation)
    }

    /// Map explicit bits (length must be a multiple of `bits_per_symbol`).
    pub fn from_bits(bits: &[u8], constellation: &Constellation) -> Self {
        let bps = constellation.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bit count must be a multiple of {bps}");
        let indices: Vec<usize> = bits
            .chunks_exact(bps)
            .map(|chunk| constellation.bits_to_index(chunk))
            .collect();
        let symbols = indices.iter().map(|&i| constellation.point(i)).collect();
        TxFrame {
            bits: bits.to_vec(),
            indices,
            symbols,
        }
    }

    /// Build from constellation indices directly.
    pub fn from_indices(indices: &[usize], constellation: &Constellation) -> Self {
        let bits = indices
            .iter()
            .flat_map(|&i| constellation.index_to_bits(i))
            .collect();
        let symbols = indices.iter().map(|&i| constellation.point(i)).collect();
        TxFrame {
            bits,
            indices: indices.to_vec(),
            symbols,
        }
    }

    /// Number of transmit antennas.
    pub fn n_tx(&self) -> usize {
        self.indices.len()
    }
}

/// Everything a detector needs for one decode, plus the ground truth.
#[derive(Clone, Debug)]
pub struct FrameData {
    /// Channel estimate `H` (`n_rx × n_tx`), assumed perfect as in the paper.
    pub h: Matrix<f64>,
    /// Noisy receive vector `y = Hs + n`.
    pub y: Vec<C64>,
    /// Noise variance `σ²` per receive antenna.
    pub noise_variance: f64,
    /// Ground-truth transmitted frame (for BER scoring only — detectors
    /// must not read it).
    pub tx: TxFrame,
}

impl FrameData {
    /// Generate one complete channel use.
    pub fn generate<R: Rng + ?Sized>(
        n_rx: usize,
        n_tx: usize,
        constellation: &Constellation,
        noise_variance: f64,
        rng: &mut R,
    ) -> Self {
        let channel = Channel::rayleigh(n_rx, n_tx, rng);
        let tx = TxFrame::random(n_tx, constellation, rng);
        let y = channel.transmit(&tx.symbols, noise_variance, rng);
        FrameData {
            h: channel.matrix().clone(),
            y,
            noise_variance,
            tx,
        }
    }

    /// Count bit errors of a decoded index vector against the ground truth.
    pub fn bit_errors(&self, decoded_indices: &[usize], constellation: &Constellation) -> u64 {
        assert_eq!(decoded_indices.len(), self.tx.indices.len());
        decoded_indices
            .iter()
            .zip(self.tx.indices.iter())
            .map(|(&d, &t)| u64::from(constellation.bit_distance(d, t)))
            .sum()
    }

    /// Count symbol errors of a decoded index vector.
    pub fn symbol_errors(&self, decoded_indices: &[usize]) -> u64 {
        assert_eq!(decoded_indices.len(), self.tx.indices.len());
        decoded_indices
            .iter()
            .zip(self.tx.indices.iter())
            .filter(|(d, t)| d != t)
            .count() as u64
    }
}

/// Mean normalized residual `‖y − H·x‖² / σ²` over `frames`: `n_rx` on
/// average when each `y` was sent through its own `H` at its own `σ²` (the
/// noise is `CN(0, σ²)` per receive antenna). The generators' tests gate
/// on it.
#[cfg(test)]
pub(crate) fn mean_normalized_residual<'a>(frames: impl Iterator<Item = &'a FrameData>) -> f64 {
    let (mut acc, mut n) = (0.0, 0usize);
    for f in frames {
        let hx = f.h.mul_vec(&f.tx.symbols);
        let r: f64 = f.y.iter().zip(&hx).map(|(y, h)| (*y - *h).norm_sqr()).sum();
        acc += r / f.noise_variance;
        n += 1;
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bits_symbols_consistent() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(11);
        let f = TxFrame::random(6, &c, &mut rng);
        assert_eq!(f.bits.len(), 24);
        assert_eq!(f.indices.len(), 6);
        assert_eq!(f.symbols.len(), 6);
        // Re-map and compare.
        let g = TxFrame::from_bits(&f.bits, &c);
        assert_eq!(g.indices, f.indices);
        assert_eq!(g.symbols, f.symbols);
    }

    #[test]
    fn from_indices_roundtrips_bits() {
        let c = Constellation::new(Modulation::Qam4);
        let f = TxFrame::from_indices(&[0, 3, 1, 2], &c);
        let g = TxFrame::from_bits(&f.bits, &c);
        assert_eq!(g.indices, vec![0, 3, 1, 2]);
    }

    #[test]
    fn generated_frame_shapes() {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(5);
        let fd = FrameData::generate(10, 10, &c, 0.1, &mut rng);
        assert_eq!(fd.h.shape(), (10, 10));
        assert_eq!(fd.y.len(), 10);
        assert_eq!(fd.tx.n_tx(), 10);
    }

    #[test]
    fn perfect_decode_scores_zero_errors() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(6);
        let fd = FrameData::generate(4, 4, &c, 0.01, &mut rng);
        assert_eq!(fd.bit_errors(&fd.tx.indices, &c), 0);
        assert_eq!(fd.symbol_errors(&fd.tx.indices), 0);
    }

    #[test]
    fn wrong_decode_counts_bit_distance() {
        let c = Constellation::new(Modulation::Qam4);
        let f = TxFrame::from_indices(&[0, 0], &c);
        let fd = FrameData {
            h: Matrix::identity(2),
            y: f.symbols.clone(),
            noise_variance: 0.0,
            tx: f,
        };
        // Decode antenna 0 as a point at Hamming distance 1 from index 0.
        let mut wrong = None;
        for j in 1..4 {
            if c.bit_distance(0, j) == 1 {
                wrong = Some(j);
                break;
            }
        }
        let wrong = wrong.unwrap();
        assert_eq!(fd.bit_errors(&[wrong, 0], &c), 1);
        assert_eq!(fd.symbol_errors(&[wrong, 0]), 1);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_bits_rejected() {
        let c = Constellation::new(Modulation::Qam16);
        TxFrame::from_bits(&[0, 1, 1], &c);
    }
}
