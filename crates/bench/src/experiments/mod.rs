//! Experiment registry: one entry per table/figure of the paper.

pub mod extensions;
pub mod figures;
pub mod tables;

use crate::report::{Report, RunOpts};
use crate::CpuTimeModel;
use sd_core::{
    Detection, DetectionStats, PrepScratch, Prepared, PreparedDetector, SearchWorkspace,
    SphereDecoder,
};
use sd_fpga::{FpgaConfig, FpgaSphereDecoder};
use sd_wireless::montecarlo::generate_frames;
use sd_wireless::{Constellation, FrameData, LinkConfig, Modulation};
use std::time::Instant;

/// The SNR grid of every figure in the paper (Sec. IV).
pub const SNR_GRID_DB: [f64; 5] = [4.0, 8.0, 12.0, 16.0, 20.0];

/// All paper experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 10] = [
    "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "nodes",
];

/// Extension experiment ids (beyond the paper's evaluation).
pub const EXT_EXPERIMENTS: [&str; 10] = [
    "ext-fp16",
    "ext-ordering",
    "ext-kbest-ordering",
    "ext-dualpipe",
    "ext-multipe",
    "ext-robustness",
    "ext-companions",
    "ext-ofdm",
    "ext-coded",
    "ext-serve",
];

/// Run one experiment by id; returns its report.
pub fn run(id: &str, opts: &RunOpts) -> Option<Report> {
    let report = match id {
        "table1" => tables::table1(opts),
        "table2" => tables::table2(opts),
        "fig6" => figures::fig_exec_time(opts, 6, 10, Modulation::Qam4),
        "fig7" => figures::fig7_ber(opts),
        "fig8" => figures::fig_exec_time(opts, 8, 15, Modulation::Qam4),
        "fig9" => figures::fig_exec_time(opts, 9, 20, Modulation::Qam4),
        "fig10" => figures::fig_exec_time(opts, 10, 10, Modulation::Qam16),
        "fig11" => figures::fig11_gpu(opts),
        "fig12" => figures::fig12_detectors(opts),
        "nodes" => figures::nodes_claim(opts),
        "ext-fp16" => extensions::ext_fp16(opts),
        "ext-ordering" => extensions::ext_ordering(opts),
        "ext-kbest-ordering" => extensions::ext_kbest_ordering(opts),
        "ext-dualpipe" => extensions::ext_dualpipe(opts),
        "ext-multipe" => extensions::ext_multipe(opts),
        "ext-robustness" => extensions::ext_robustness(opts),
        "ext-companions" => extensions::ext_companions(opts),
        "ext-ofdm" => extensions::ext_ofdm(opts),
        "ext-coded" => extensions::ext_coded(opts),
        "ext-serve" => extensions::ext_serve(opts),
        _ => return None,
    };
    Some(report)
}

/// Shared frame set for one operating point (same noise realizations for
/// every platform).
pub fn point_frames(
    n: usize,
    modulation: Modulation,
    snr_db: f64,
    frames: usize,
    seed: u64,
) -> (Constellation, Vec<FrameData>) {
    let cfg = LinkConfig::square(n, modulation, snr_db)
        .with_frames(frames)
        .with_seed(seed ^ (snr_db.to_bits() >> 17));
    generate_frames(&cfg)
}

/// Per-platform mean decode times (ms) at one operating point.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointTiming {
    /// Native Rust wall-clock of the software decoder on this host.
    pub cpu_native_ms: f64,
    /// Modeled 64-core MKL CPU (paper's platform).
    pub cpu_model_ms: f64,
    /// FPGA baseline variant (modeled).
    pub fpga_base_ms: f64,
    /// FPGA optimized variant (modeled).
    pub fpga_opt_ms: f64,
    /// Mean node expansions per frame.
    pub expansions: f64,
}

/// Measure every platform on shared frames.
pub fn measure_point(n: usize, modulation: Modulation, snr_db: f64, opts: &RunOpts) -> PointTiming {
    let frames_n = opts.frames();
    let (constellation, frames) = point_frames(n, modulation, snr_db, frames_n, opts.seed);
    let cpu: SphereDecoder<f32> = SphereDecoder::new(constellation.clone());
    let cpu_model = CpuTimeModel::mkl_64core();
    let base = FpgaSphereDecoder::new(FpgaConfig::baseline(modulation, n), constellation.clone());
    let opt = FpgaSphereDecoder::new(FpgaConfig::optimized(modulation, n), constellation);

    let mut t = PointTiming::default();
    // Native wall-clock (serial, as the per-frame latency figure), driven
    // through the unified engine API with reused preprocessing and search
    // scratch — the same zero-allocation decode path the serve runtime and
    // alloc-free gate exercise.
    let mut scratch = PrepScratch::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let t0 = Instant::now();
    let mut detections = Vec::with_capacity(frames.len());
    for f in &frames {
        let mut det = Detection::default();
        cpu.prepare_frame_into(f, &mut scratch, &mut prep);
        let r2 = cpu.initial_radius_sqr(f.h.rows(), f.noise_variance);
        cpu.detect_prepared_into(&prep, r2, &mut ws, &mut det);
        detections.push(std::hint::black_box(det));
    }
    t.cpu_native_ms = t0.elapsed().as_secs_f64() * 1e3 / frames.len() as f64;

    // Fold every frame's instrumentation in one pass; the time model is
    // linear in the aggregate, so this matches per-frame summation exactly.
    let total: DetectionStats = detections.iter().map(|d| &d.stats).sum();
    t.cpu_model_ms = cpu_model.decode_seconds(&total) * 1e3 / frames.len() as f64;
    t.expansions = total.nodes_expanded as f64 / frames.len() as f64;

    for f in &frames {
        t.fpga_base_ms += base.decode_with_report(f).decode_seconds * 1e3;
        t.fpga_opt_ms += opt.decode_with_report(f).decode_seconds * 1e3;
    }
    t.fpga_base_ms /= frames.len() as f64;
    t.fpga_opt_ms /= frames.len() as f64;
    t
}
