//! # mimo-sd — sphere-decoding signal detection for large MIMO systems
//!
//! A from-scratch Rust reproduction of *"Signal Detection for Large MIMO
//! Systems Using Sphere Decoding on FPGAs"* (Hassan, Dabah, Ltaief, Fahmy —
//! IPPS 2023): the GEMM-based sphere decoder with Best-First tree
//! traversal, its CPU/GPU/linear baselines, and cycle-approximate
//! architectural models of the Alveo U280 accelerator and the A100 GPU
//! baseline.
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`sd_math`] | complex linear algebra: GEMM, QR, Cholesky, RNG, `f16` |
//! | [`sd_wireless`] | constellations, Rayleigh channel, AWGN, Monte-Carlo link |
//! | [`sd_core`] | the sphere decoder variants and linear detectors |
//! | [`sd_fpga`] | the U280 pipeline simulator, resource & power models |
//! | [`sd_gpu`] | the A100 GEMM-BFS execution model |
//!
//! ## Quickstart
//!
//! ```
//! use mimo_sd::prelude::*;
//! use rand::SeedableRng;
//!
//! // A 4×4 16-QAM link at 12 dB.
//! let constellation = Constellation::new(Modulation::Qam16);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sigma2 = noise_variance(12.0, 4);
//! let frame = FrameData::generate(4, 4, &constellation, sigma2, &mut rng);
//!
//! // Decode with the paper's sorted-DFS GEMM sphere decoder.
//! let decoder: SphereDecoder<f32> = SphereDecoder::new(constellation.clone());
//! let detection = decoder.detect(&frame);
//! assert_eq!(detection.indices.len(), 4);
//! ```

#![warn(missing_docs)]

pub use sd_core;
pub use sd_fpga;
pub use sd_gpu;
pub use sd_math;
pub use sd_wireless;

/// One-stop imports for applications.
pub mod prelude {
    pub use sd_core::{
        batch::{batch_stats, decode_batch, decode_batch_reused, WorkspaceDetector},
        BestFirstSd, BfsGemmSd, ColumnOrdering, Detection, DetectionStats, Detector, EvalStrategy,
        FixedComplexitySd, InitialRadius, KBestSd, MetricKind, MlDetector, MmseDetector,
        MrcDetector, ParallelSphereDecoder, QuantizedFsd, QuantizedKBestSd, RvdSphereDecoder,
        SearchWorkspace, SoftDetection, SoftSphereDecoder, SphereDecoder, StatPruningSd,
        SubtreeParallelSd, ZfDetector,
    };
    pub use sd_fpga::{
        estimate_resources, CpuPowerModel, FpgaConfig, FpgaPowerModel, FpgaSphereDecoder,
        MultiPipeline, ResourceUsage, Variant,
    };
    pub use sd_gpu::{A100Model, GpuSphereDecoder};
    pub use sd_math::{Complex, Float, Matrix, C32, C64, F16};
    pub use sd_wireless::{
        corrupt_csi, noise_variance, run_link, run_link_parallel, BerCurve, BerPoint, Channel,
        ChannelModel, Constellation, ErrorCounter, FrameData, LinkConfig, LinkStats, Modulation,
        SnrConvention, TxFrame, REAL_TIME_BUDGET,
    };
}
