//! # sd-serve
//!
//! A deadline-aware batching detection runtime over the sphere-decoder
//! core, with graceful degradation and a closed-loop load harness.
//!
//! The paper frames signal detection as a *real-time service*: decisions
//! are worthless after the ~10 ms response line
//! ([`sd_wireless::REAL_TIME_BUDGET`]). Exact sphere decoding, however,
//! has heavy-tailed SNR-dependent latency — exactly the wrong shape for a
//! deadline. This crate is the systems layer that closes that gap:
//!
//! * **Admission control** — a bounded MPMC ingress [queue];
//!   overload is shed *at the door* with a typed [`Rejected`], never
//!   queued without bound, and every admitted request is answered
//!   (drain-then-join shutdown).
//! * **Adaptive batching** — workers drain requests in flush-on-size-or-
//!   age [batches](batcher), amortizing every per-request lock and
//!   metrics update; the same trick the paper's GEMM formulation plays on
//!   partial distances.
//! * **Graceful degradation** — a [ladder] over a configurable
//!   [tier registry](registry) (stock: exact SD → K-best → MMSE), driven
//!   by a running per-SNR [cost model](budget), picks the first tier
//!   whose predicted cost fits each request's remaining deadline budget.
//!   Tiers are [`sd_core::PreparedDetector`] trait objects, so any engine
//!   in the detector zoo can be stacked into a custom descent via
//!   [`ServeRuntime::start_with_registry`].
//! * **Predictive admission + anytime decoding** — the cost model keys
//!   its node curves on a pre-decode channel-conditioning observable
//!   ([`sd_core::ChannelObservables`]) as well as SNR, and in anytime
//!   mode ([`LadderConfig::anytime`]) every ladder decision also fixes an
//!   explicit [`sd_core::DecodeBudget`] up front: a mispredicted decode
//!   truncates at its node cap or deadline with a best-so-far answer
//!   (flagged [`sd_core::SearchQuality::BudgetTruncated`]) instead of
//!   blowing the deadline for everything queued behind it.
//! * **Zero-allocation steady state** — the decode path writes into
//!   recycled buffers through the `_into` entry points of `sd-core`;
//!   after warm-up a request is served without touching the allocator.
//! * **Sharded channel-affinity runtime** — the pool is split into
//!   shards, each owning a bounded ingress queue, its workers, a
//!   channel-coherent prep cache and a cost model; admission routes by a
//!   hash of the channel matrix ([`prep_cache::route_hash`]), so one
//!   channel's traffic stays on one shard and its cache. Idle shard
//!   workers **steal** whole queue items (never splitting a frame) from
//!   loaded neighbors, bounded to half the victim's backlog — load
//!   imbalance costs latency, not idle cores. One shard (the default) is
//!   exactly the classic single-queue runtime.
//! * **Channel-coherent preparation caching** — requests sharing one
//!   channel matrix (a coherence block) reuse a cached QR factorization
//!   per shard ([`prep_cache`]); only the cheap `ȳ = Qᴴy` half runs per
//!   request, bit-identically to the uncached path.
//! * **Adaptive core budget** — an optional controller
//!   ([`ServeConfig::with_core_budget`]) splits the physical core
//!   allowance between request-level workers and the subtree-parallel
//!   exact decoder's lanes via a shared [`sd_core::WorkerBudget`]: low
//!   load widens the decoder (latency), sustained backlog narrows it so
//!   cores serve independent requests (throughput), with EWMA smoothing
//!   and watermark hysteresis so the plan never flaps.
//! * **Frame-scale serving** — a whole coherence block submitted as one
//!   [`FrameRequest`] travels intact to one worker, gets one ladder
//!   decision (cost scaled by block size), one prep-cache lookup or
//!   channel factorization and one batched `ȳ = QᴴY` apply
//!   ([`sd_core::prepare_block_with_channel_into`]), and comes back as a
//!   [`FrameResponse`] with per-subcarrier detections — bit-identical to
//!   per-vector submission, at a fraction of the per-request overhead.
//!   The runtime has one request path: a [`DetectionRequest`] is served
//!   as a block of one.
//! * **Observability** — lock-light [metrics], each declared once
//!   (latency/wait histograms, tier, shard and shed counters, aggregated
//!   [`sd_core::DetectionStats`]) and rendered from that declaration in
//!   both [export] formats.
//! * **A load harness** — a seeded [load generator](loadgen) that paces a
//!   reproducible request mixture at an offered rate and reduces the run
//!   to throughput / percentile-latency / miss-rate / degradation-mix.
//!
//! With one worker and degradation disabled, served decisions are
//! bit-identical to calling [`sd_core::SphereDecoder`] directly — the
//! runtime adds scheduling, not numerics (`tests/serve_exactness.rs`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batcher;
pub mod budget;
pub mod export;
pub mod ladder;
pub mod loadgen;
pub mod metrics;
pub mod prep_cache;
pub mod queue;
pub mod registry;
pub mod request;
pub mod runtime;
mod worker;

pub use batcher::BatchPolicy;
pub use budget::{
    fsd_nodes, kbest_nodes, CoreBudgetPolicy, CostModel, TierCostClass, WorkerBudget,
};
pub use export::{json_line, prometheus_text, render, validate_json, ExportFormat};
pub use ladder::{choose_tier, LadderConfig, TierDecision, MIN_ANYTIME_NODES};
pub use loadgen::{
    build_coherent_requests, build_frame_requests, build_requests, explode_frames, run_frame_load,
    run_load, run_request_stream, FrameLoadConfig, FrameLoadReport, LoadConfig, LoadReport,
};
pub use metrics::{Log2Histogram, Metrics, MetricsSnapshot, ShardSnapshot, TierSnapshot};
pub use prep_cache::{route_hash, PrepCache};
pub use queue::{BatchPop, BoundedQueue, PushError};
pub use registry::{default_registry, quantized_registry, Tier};
pub use request::{
    DetectionRequest, DetectionResponse, FrameRequest, FrameResponse, RejectReason, Rejected,
    RejectedFrame,
};
pub use runtime::{
    default_core_allowance, host_cores, CoreBudgetConfig, ReporterConfig, ServeConfig, ServeRuntime,
};
