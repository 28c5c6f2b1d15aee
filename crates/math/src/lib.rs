//! # sd-math
//!
//! From-scratch complex linear algebra substrate for the sphere-decoding
//! MIMO detector reproduction (Hassan et al., IPPS 2023).
//!
//! The paper's GEMM-based sphere decoder casts all partial-distance
//! evaluations as complex matrix–matrix products; this crate provides every
//! numeric primitive that formulation needs, without external linear-algebra
//! dependencies:
//!
//! * [`Complex`] numbers generic over a local [`Float`] trait
//!   (`f32`, `f64`, and a software [`F16`] used for the paper's
//!   half-precision future-work study),
//! * dense row-major [`Matrix`] storage with a full complex
//!   [GEMM](mod@gemm) (naive reference, cache-blocked, and rayon-parallel —
//!   the stand-in for the paper's Intel MKL CPU baseline),
//! * Householder [QR decomposition](mod@qr) (plus a modified Gram–Schmidt
//!   cross-check) used by the `‖ȳ − Rs‖²` refactoring of Eq. (4),
//! * complex [Cholesky factorization](mod@cholesky) and
//!   [triangular solves](solve) for the ZF/MMSE linear baselines,
//! * [complex-Gaussian sampling](rng) (Box–Muller) for Rayleigh channels
//!   and AWGN.
//!
//! All kernels are deterministic for a fixed seed and are exercised by
//! property-based tests (`Q^H Q = I`, `QR = A`, GEMM vs naive reference,
//! `L L^H = A`, …).

#![warn(missing_docs)]
#![warn(clippy::all)]
// `!(d > 0)` is the NaN-robust positivity test in the Cholesky pivot check.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod atomic;
pub mod bulk;
pub mod cholesky;
pub mod complex;
pub mod condition;
pub mod f16;
pub mod fixed;
pub mod float;
pub mod fxkernel;
pub mod gemm;
pub mod matrix;
pub mod qr;
pub mod rng;
pub mod solve;
pub mod vector;

pub use atomic::AtomicF64Min;
pub use bulk::fill_tiles;
pub use cholesky::{cholesky, solve_hermitian, CholeskyError};
pub use complex::Complex;
pub use condition::{condition_estimate, smallest_singular_estimate, spectral_norm_estimate};
pub use f16::F16;
pub use fixed::MetricKind;
pub use float::Float;
pub use fxkernel::{fx_expand_level_multi, fx_metric_update, fx_suffix_cmac};
pub use gemm::{
    gemm, gemm_acc_into, gemm_broadcast_acc_into, gemm_broadcast_acc_stacked_into, gemm_flops,
    gemm_into, GemmAlgo,
};
pub use matrix::Matrix;
pub use qr::{qr, qr_with_qty, QrDecomposition, QrFactors};
pub use rng::ComplexNormal;
pub use vector::CVector;

/// Single-precision complex scalar (the FPGA design's native precision).
pub type C32 = Complex<f32>;
/// Double-precision complex scalar (reference precision for tests).
pub type C64 = Complex<f64>;
/// Software half-precision complex scalar (future-work precision study).
pub type C16 = Complex<F16>;
