//! Initial sphere-radius strategies.
//!
//! Algorithm 1 takes a user-chosen radius `r` that is tightened at run
//! time whenever a leaf is reached. The initial choice trades search
//! effort against the risk of an empty sphere: the decoders in this crate
//! restart with an enlarged radius when no leaf survives, so every
//! strategy remains exact.

use serde::{Deserialize, Serialize};

/// How the first sphere radius is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub enum InitialRadius {
    /// `r² = ∞`: the first depth-first descent (a Babai/SIC solution)
    /// establishes the radius. Never restarts; the robust default.
    #[default]
    Infinite,
    /// `r² = α · N · σ²`: scaled to the expected noise energy
    /// `E[‖n‖²] = N σ²`. The paper's "set initially by the user" choice;
    /// `α ≈ 2` admits the true solution with high probability.
    ScaledNoise(f64),
    /// Fixed squared radius (worked examples, e.g. the paper's Fig. 2 tree
    /// with `r = 10`).
    Fixed(f64),
}

impl InitialRadius {
    /// Resolve to a concrete squared radius for a frame with `n_rx`
    /// receive antennas and noise variance `sigma2`.
    pub fn resolve(self, n_rx: usize, sigma2: f64) -> f64 {
        match self {
            InitialRadius::Infinite => f64::INFINITY,
            InitialRadius::ScaledNoise(alpha) => {
                assert!(alpha > 0.0, "alpha must be positive");
                alpha * n_rx as f64 * sigma2
            }
            InitialRadius::Fixed(r2) => {
                assert!(r2 > 0.0, "fixed radius must be positive");
                r2
            }
        }
    }

    /// The growth factor applied on an empty-sphere restart.
    pub const RESTART_GROWTH: f64 = 4.0;

    /// Restarts after which an empty sphere ends the decode.
    pub const MAX_RESTARTS: u64 = 63;

    /// Whether a decode whose walk at squared radius `r2` captured no
    /// leaf may restart, after `restarts` restarts so far. A finite
    /// positive radius grows, up to [`Self::MAX_RESTARTS`]; an infinite one
    /// (every metric NaN) or a zero one never captures more by growing. A
    /// decode that may not restart returns its greedy leaf, flagged
    /// [`SearchQuality::BudgetTruncated`](crate::detector::SearchQuality).
    pub fn can_restart(r2: f64, restarts: u64) -> bool {
        r2 > 0.0 && r2.is_finite() && restarts < Self::MAX_RESTARTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_resolves_to_infinity() {
        assert!(InitialRadius::Infinite.resolve(10, 0.5).is_infinite());
    }

    #[test]
    fn scaled_noise_formula() {
        let r2 = InitialRadius::ScaledNoise(2.0).resolve(10, 0.25);
        assert!((r2 - 2.0 * 10.0 * 0.25).abs() < 1e-15);
    }

    #[test]
    fn fixed_passes_through() {
        assert_eq!(InitialRadius::Fixed(100.0).resolve(3, 1.0), 100.0);
    }

    #[test]
    fn default_is_infinite() {
        assert_eq!(InitialRadius::default(), InitialRadius::Infinite);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn non_positive_alpha_rejected() {
        InitialRadius::ScaledNoise(0.0).resolve(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "fixed radius must be positive")]
    fn non_positive_fixed_rejected() {
        InitialRadius::Fixed(-1.0).resolve(1, 1.0);
    }
}
