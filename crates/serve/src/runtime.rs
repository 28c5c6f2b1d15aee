//! The runtime: admission control, the sharded worker pool, and the
//! shutdown contract.
//!
//! The runtime is **sharded**: `n_shards` shards each own a bounded
//! ingress queue, a slice of the worker pool, a channel-coherent
//! [`PrepCache`], and their own [`CostModel`]. Admission routes every
//! request by a hash of its channel matrix (`route_hash(H) % n_shards`),
//! so coherent traffic — requests repeating one `H`, per-vector and
//! [`FrameRequest`] alike — concentrates on one shard and its cache.
//! When a shard's queue runs dry its workers steal whole queue items
//! (never splitting a frame) from other shards, bounded to half the
//! victim's backlog, so load imbalance costs latency, not idle cores.
//!
//! Lifecycle of a request:
//!
//! 1. [`ServeRuntime::submit`] (or [`ServeRuntime::submit_frame`]) stamps
//!    the admission time, validates the request and offers it to its
//!    affinity shard's bounded queue. A malformed request
//!    ([`RejectReason::Malformed`]) or a full (or closing) queue returns it
//!    immediately as [`Rejected`] — load is shed at the door, never queued
//!    without bound, and no worker is handed a request it cannot decode.
//! 2. A shard worker drains it as part of a batch ([`crate::batcher`]),
//!    picks a ladder rung from the time left until its deadline
//!    ([`crate::ladder`]), decodes into a pooled [`sd_core::Detection`]
//!    slot, and pushes the response.
//! 3. The caller collects the [`DetectionResponse`] and (optionally)
//!    [`ServeRuntime::recycle`]s it, returning the detection buffer to the
//!    pool and regaining ownership of the request.
//!
//! Both request shapes take this one path: a vector is served as a block
//! of one receive vector, a frame as a block of its subcarriers. The
//! typed `submit`/`collect`/`recycle` pairs only wrap and unwrap the
//! shape.
//!
//! On top of the shards, an optional **adaptive core budget**
//! ([`ServeConfig::with_core_budget`]) re-plans how the physical core
//! allowance is split between request-level workers and the
//! subtree-parallel exact decoder's broadcast pool: low load favors a
//! wide [`sd_core::ParallelSphereDecoder`] (latency), high load narrows
//! it so the cores serve independent requests (throughput).
//!
//! [`ServeRuntime::shutdown`] closes every ingress queue, lets workers
//! drain every admitted request (drain-then-join — nothing admitted is
//! ever dropped), joins them, and returns the final metrics snapshot.

use crate::batcher::BatchPolicy;
use crate::budget::{CoreBudgetPolicy, CostModel};
use crate::export::{render, ExportFormat};
use crate::ladder::{choose_tier, LadderConfig};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::prep_cache::{route_hash_finite, PrepCache};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{default_registry, Tier};
use crate::request::{
    Defect, DetectionRequest, DetectionResponse, FrameRequest, FrameResponse, RejectReason,
    Rejected, RejectedFrame,
};
use crate::worker::Worker;
use sd_core::{Detection, WorkerBudget};
use sd_wireless::{Constellation, FrameData};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a detection pool lock can fail.
pub(crate) const POOL_POISONED: &str = "a thread panicked while holding a detection pool";

/// Logical cores the host reports (1 when the host cannot say).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Default worker/core allowance: [`host_cores`] clamped to `[1, 16]`.
/// The clamp keeps a default runtime from spawning an absurd pool on a
/// many-core box; the old hardcoded 4 oversubscribed small hosts (the
/// PR 5 bench showed 4/8 workers *slower* than 2 on few cores).
/// Override explicitly via [`ServeConfig::with_workers`].
pub fn default_core_allowance() -> usize {
    host_cores().clamp(1, 16)
}

/// Periodic metrics reporter: every `period`, the runtime renders a fresh
/// [`MetricsSnapshot`] in `format` to stderr from a dedicated thread.
#[derive(Clone, Debug)]
pub struct ReporterConfig {
    /// Interval between reports.
    pub period: Duration,
    /// Rendering used for each report.
    pub format: ExportFormat,
}

/// Adaptive core-budget controller configuration: the shared
/// [`WorkerBudget`] handle the subtree-parallel decoder samples, plus the
/// [`CoreBudgetPolicy`] that re-plans it. Build the registry's exact tier
/// with [`sd_core::ParallelSphereDecoder::with_worker_budget`] on a clone
/// of the same handle to close the loop.
#[derive(Clone, Debug)]
pub struct CoreBudgetConfig {
    /// Lane allowance shared with the decoder(s) under control.
    pub handle: Arc<WorkerBudget>,
    /// Watermarks, cadence, and core allowance.
    pub policy: CoreBudgetPolicy,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, dealt round-robin across the shards (defaults to
    /// [`default_core_allowance`]).
    pub n_workers: usize,
    /// Shards (`1` = the classic single-queue runtime; `0` = one shard
    /// per worker). Clamped to `n_workers` so every shard has a worker.
    pub n_shards: usize,
    /// Allow idle shard workers to steal queued items from other shards.
    pub steal: bool,
    /// Total bounded ingress depth (admission control), split evenly
    /// across the shard queues (each gets at least 1 slot).
    pub queue_capacity: usize,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Degradation ladder.
    pub ladder: LadderConfig,
    /// Start with the worker gate paused (deterministic tests build a
    /// backlog, then [`ServeRuntime::resume`]).
    pub start_paused: bool,
    /// Optional periodic metrics reporter.
    pub reporter: Option<ReporterConfig>,
    /// Optional adaptive core-budget controller.
    pub core_budget: Option<CoreBudgetConfig>,
    /// Per-shard channel-coherent preparation cache capacity (cached QR
    /// factorizations per shard; see [`crate::prep_cache`]). `0` disables
    /// the cache — every request then pays its own QR.
    pub prep_cache: usize,
    /// Predictive admission control: refuse a request at [`ServeRuntime::submit`]
    /// when its target shard's queued cost — every queued item stamped at
    /// admission with the shard model's *per-tier* service-time prediction
    /// for the rung the ladder would run it on — is already predicted to
    /// outlast the request's whole deadline
    /// ([`crate::RejectReason::PredictedLate`]). Pricing each item by its
    /// own tier (rather than a tier-blind mean) keeps a backlog of cheap
    /// floor-tier work from shedding requests it could easily absorb.
    /// A doomed request admitted anyway is a guaranteed deadline miss
    /// *and* steals service time from the requests queued behind it; the
    /// gate converts it into an explicit, immediate shed the caller can
    /// retry elsewhere. Off by default (the reactive control arm); a cold
    /// model admits everything until it has drain-rate evidence.
    pub predictive_admission: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_workers: default_core_allowance(),
            n_shards: 1,
            steal: true,
            queue_capacity: 256,
            batch: BatchPolicy::default(),
            ladder: LadderConfig::default(),
            start_paused: false,
            reporter: None,
            core_budget: None,
            prep_cache: 8,
            predictive_admission: false,
        }
    }
}

impl ServeConfig {
    /// Builder: worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.n_workers = n;
        self
    }

    /// Builder: shard count (`0` = one shard per worker).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.n_shards = n;
        self
    }

    /// Builder: enable/disable work stealing between shards.
    pub fn with_stealing(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Builder: total ingress queue capacity (split across shards).
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Builder: batching policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: degradation ladder.
    pub fn with_ladder(mut self, ladder: LadderConfig) -> Self {
        self.ladder = ladder;
        self
    }

    /// Builder: start with workers gated (see [`ServeRuntime::resume`]).
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Builder: report metrics to stderr every `period` in `format`.
    pub fn with_reporter(mut self, period: Duration, format: ExportFormat) -> Self {
        self.reporter = Some(ReporterConfig { period, format });
        self
    }

    /// Builder: attach the adaptive core-budget controller. `handle` is
    /// the [`WorkerBudget`] the registry's subtree-parallel decoder was
    /// built with; the controller re-plans it per `policy`.
    pub fn with_core_budget(mut self, handle: Arc<WorkerBudget>, policy: CoreBudgetPolicy) -> Self {
        self.core_budget = Some(CoreBudgetConfig { handle, policy });
        self
    }

    /// Builder: per-shard channel-coherent preparation cache capacity
    /// (`0` disables caching).
    pub fn with_prep_cache(mut self, capacity: usize) -> Self {
        self.prep_cache = capacity;
        self
    }

    /// Builder: enable/disable predictive admission control (see
    /// [`ServeConfig::predictive_admission`]).
    pub fn with_predictive_admission(mut self, on: bool) -> Self {
        self.predictive_admission = on;
        self
    }
}

/// A request as the runtime serves it: a block of one or more receive
/// vectors that share one channel. A [`DetectionRequest`] is a block of
/// one; a [`FrameRequest`] travels intact through the batcher — and
/// through any steal — to one worker, which prepares its shared channel
/// once.
pub(crate) enum Request {
    Vector(DetectionRequest),
    Frame(FrameRequest),
}

impl Request {
    /// The block's receive vectors, all sharing `frames()[0].h`.
    pub(crate) fn frames(&self) -> &[FrameData] {
        match self {
            Request::Vector(r) => std::slice::from_ref(&r.frame),
            Request::Frame(f) => &f.subcarriers,
        }
    }

    /// Operating SNR (dB) of the whole block.
    pub(crate) fn snr_db(&self) -> f64 {
        match self {
            Request::Vector(r) => r.snr_db,
            Request::Frame(f) => f.snr_db,
        }
    }

    /// Response-time budget of the whole block, from admission.
    pub(crate) fn deadline(&self) -> Duration {
        match self {
            Request::Vector(r) => r.deadline,
            Request::Frame(f) => f.deadline,
        }
    }
}

/// One unit of admitted work: a request plus the stamps admission put on
/// it.
pub(crate) struct Ingress {
    pub(crate) request: Request,
    /// Admission time; queue wait and latency run from here.
    pub(crate) enqueued_at: Instant,
    /// [`crate::route_hash`] of the block's channel: it picked the shard at
    /// admission and keys the shard's prep cache at the worker, so each
    /// channel is hashed once per request.
    pub(crate) hash: u64,
    /// Admission-time predicted service cost (ns) — the amount the
    /// draining worker removes from the owning shard's
    /// [`Shard::queued_cost_ns`] gauge. 0 while predictive admission is
    /// off (the gauge then has no reader).
    pub(crate) cost_ns: u64,
}

impl Ingress {
    /// Accounting weight: the receive vectors in the block.
    pub(crate) fn weight(&self) -> u64 {
        self.request.frames().len() as u64
    }
}

/// One shard: its bounded ingress queue plus the per-shard serving state
/// its workers share. Affinity routing keeps one channel's traffic on one
/// shard, so its cache and cost model see a coherent stream.
pub(crate) struct Shard {
    pub(crate) queue: BoundedQueue<Ingress>,
    /// This shard's cost model — fed only by decodes its workers ran, so
    /// shard-local traffic shape drives shard-local ladder decisions.
    pub(crate) model: CostModel,
    /// This shard's channel-coherent factorization cache.
    pub(crate) prep_cache: Mutex<PrepCache>,
    /// Predicted-cost backlog gauge in nanoseconds: the sum of the
    /// admission-time cost stamps ([`Ingress::cost_ns`]) of everything
    /// still queued here — the predictive-admission wait estimate's
    /// numerator. Each stamp prices the *specific* item from the shard
    /// model's per-tier cost curves (the rung the ladder would pick with
    /// the whole deadline ahead), so a backlog of floor-tier microseconds
    /// no longer reads as expensive just because exact-tier milliseconds
    /// share the same queue. Incremented *before* the enqueue attempt and
    /// rolled back on refusal, decremented by whichever worker actually
    /// drains the item (own pop or steal), so at every instant the gauge
    /// is ≥ the stamped cost still queued here and a racing reader can
    /// only be conservative, never negative.
    pub(crate) queued_cost_ns: AtomicU64,
    /// Workers dealt to this shard (round-robin `i % n_shards`) — the
    /// wait estimate's drain-parallelism denominator.
    pub(crate) n_workers: usize,
}

/// State shared between the runtime handle and its workers.
pub(crate) struct Shared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) out: BoundedQueue<DetectionResponse>,
    pub(crate) out_frames: BoundedQueue<FrameResponse>,
    pub(crate) pool: Mutex<Vec<Detection>>,
    pub(crate) frame_pool: Mutex<Vec<Vec<Detection>>>,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServeConfig,
    pub(crate) tiers: Vec<Tier>,
}

impl Shared {
    /// Depth of every shard queue, in shard order.
    fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.queue.len()).collect()
    }

    /// Total ingress backlog.
    fn total_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }
}

/// A running detection service.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    reporter: Option<Reporter>,
    controller: Option<Controller>,
}

/// The periodic reporter thread and its stop latch.
struct Reporter {
    handle: JoinHandle<()>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Reporter {
    fn spawn(shared: Arc<Shared>, config: ReporterConfig) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let latch = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sd-serve-reporter".into())
            .spawn(move || {
                let (lock, cv) = &*latch;
                let mut stopped = lock.lock().unwrap();
                loop {
                    let (g, timeout) = cv.wait_timeout(stopped, config.period).unwrap();
                    stopped = g;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        let snap = shared.metrics.snapshot(&shared.shard_depths());
                        eprintln!("{}", render(&snap, config.format).trim_end());
                    }
                }
            })
            .expect("spawn reporter");
        Reporter { handle, stop }
    }

    fn stop(self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        self.handle.join().expect("reporter panicked");
    }
}

/// The adaptive core-budget controller thread and its stop latch.
///
/// Every `period` it folds the summed shard backlog into an EWMA,
/// normalizes by the worker count ("queued items per worker"), and picks
/// a plan: backlog at or above the high watermark narrows the
/// subtree-parallel decoder to `max(1, cores / n_workers)` lanes so the
/// cores serve independent requests (throughput); backlog at or below the
/// low watermark hands the whole allowance back to the decoder (latency).
/// Between the watermarks the current plan holds — hysteresis, so a load
/// hovering near one threshold cannot flap the pool.
struct Controller {
    handle: JoinHandle<()>,
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Controller {
    fn spawn(shared: Arc<Shared>, cfg: CoreBudgetConfig) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let latch = Arc::clone(&stop);
        // Start on the latency plan: an idle runtime wants the widest
        // decoder. Recorded immediately so snapshots never read 0 while a
        // controller is attached.
        cfg.handle.set(cfg.policy.cores.max(1));
        shared
            .metrics
            .core_budget
            .store(cfg.handle.get() as u64, Relaxed);
        let handle = std::thread::Builder::new()
            .name("sd-serve-budget".into())
            .spawn(move || {
                let (lock, cv) = &*latch;
                let n_workers = shared.config.n_workers.max(1);
                let latency_plan = cfg.policy.cores.max(1);
                let throughput_plan = (cfg.policy.cores / n_workers).max(1);
                let mut current = latency_plan;
                let mut ewma = 0.0f64;
                let mut stopped = lock.lock().unwrap();
                loop {
                    let (g, timeout) = cv.wait_timeout(stopped, cfg.policy.period).unwrap();
                    stopped = g;
                    if *stopped {
                        return;
                    }
                    if !timeout.timed_out() {
                        continue;
                    }
                    let depth = shared.total_depth();
                    ewma += cfg.policy.alpha * (depth as f64 - ewma);
                    let load = ewma / n_workers as f64;
                    let target = if load >= cfg.policy.high_watermark {
                        throughput_plan
                    } else if load <= cfg.policy.low_watermark {
                        latency_plan
                    } else {
                        current // dead band: hold the plan
                    };
                    if target != current {
                        current = target;
                        cfg.handle.set(current);
                        shared.metrics.budget_replans.fetch_add(1, Relaxed);
                    }
                    shared.metrics.core_budget.store(current as u64, Relaxed);
                }
            })
            .expect("spawn budget controller");
        Controller { handle, stop }
    }

    fn stop(self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        self.handle.join().expect("budget controller panicked");
    }
}

/// Split a total ingress capacity across `n` shard queues: earlier shards
/// absorb the remainder; every shard gets at least one slot (a total
/// below the shard count rounds up — admission stays bounded per shard).
fn split_capacity(total: usize, n: usize) -> Vec<usize> {
    let base = total / n;
    let rem = total % n;
    (0..n)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

/// Check that a block can be decoded, and return its channel's
/// [`crate::route_hash`]: every subcarrier must carry the block channel
/// (subcarrier 0's `H`, equal by the `==` that [`FrameRequest::new`]
/// asserts), of shape `1 ≤ n_tx ≤ n_rx == y.len()`, with finite `H` and
/// `y` and a finite, non-negative `σ²`. The channel's finiteness is tested
/// in the hash's own pass over its words; what validation adds is one pass
/// over each later subcarrier's `H` and over each `y`.
fn validate(frames: &[FrameData]) -> Result<u64, RejectReason> {
    let malformed = |subcarrier, defect| RejectReason::Malformed { subcarrier, defect };
    let Some(first) = frames.first() else {
        return Err(malformed(0, Defect::Shape));
    };
    let (n_rx, n_tx) = first.h.shape();
    let (hash, h_finite) = route_hash_finite(&first.h);
    for (k, f) in frames.iter().enumerate() {
        if (k > 0 && f.h != first.h) || f.y.len() != n_rx || !(1..=n_rx).contains(&n_tx) {
            return Err(malformed(k, Defect::Shape));
        }
        let y_finite = f.y.iter().all(|c| c.re.is_finite() && c.im.is_finite());
        if !(h_finite && y_finite && (0.0..f64::INFINITY).contains(&f.noise_variance)) {
            return Err(malformed(k, Defect::Value));
        }
    }
    Ok(hash)
}

impl ServeRuntime {
    /// Spawn the worker pool with the stock registry (exact SD → K-best →
    /// MMSE) and start serving.
    pub fn start(config: ServeConfig, constellation: Constellation) -> Self {
        let tiers = default_registry(&constellation, &config.ladder);
        Self::start_with_registry(config, tiers)
    }

    /// Spawn the worker pool over a caller-built tier registry, ordered
    /// most → least accurate. The last tier is the unconditional floor
    /// that serves any request nothing cheaper could.
    pub fn start_with_registry(mut config: ServeConfig, tiers: Vec<Tier>) -> Self {
        assert!(config.n_workers >= 1, "need at least one worker");
        assert!(!tiers.is_empty(), "registry needs at least one tier");
        config.batch.check();
        // Resolve the shard count (0 = one per worker) and pin it in the
        // stored config so workers and snapshots agree on the topology.
        let n_shards = if config.n_shards == 0 {
            config.n_workers
        } else {
            config.n_shards
        }
        .clamp(1, config.n_workers);
        config.n_shards = n_shards;
        let shards: Vec<Shard> = split_capacity(config.queue_capacity, n_shards)
            .into_iter()
            .enumerate()
            .map(|(j, cap)| {
                let queue = BoundedQueue::new(cap);
                if config.start_paused {
                    queue.pause();
                }
                Shard {
                    queue,
                    model: CostModel::new(tiers.len()),
                    prep_cache: Mutex::new(PrepCache::new(config.prep_cache)),
                    queued_cost_ns: AtomicU64::new(0),
                    // The round-robin deal gives shard j one worker per
                    // full lap plus one more when j is inside the remainder.
                    n_workers: config.n_workers / n_shards
                        + usize::from(j < config.n_workers % n_shards),
                }
            })
            .collect();
        // Responses are bounded by admission control (≤ queue_capacity in
        // flight per uncollected client), not by these queues.
        let out = BoundedQueue::new(usize::MAX);
        let out_frames = BoundedQueue::new(usize::MAX);
        let labels = tiers.iter().map(|t| Arc::clone(&t.label)).collect();
        let core_budget = config.core_budget.clone();
        let shared = Arc::new(Shared {
            shards,
            out,
            out_frames,
            pool: Mutex::new(Vec::new()),
            frame_pool: Mutex::new(Vec::new()),
            metrics: Metrics::new(labels, n_shards, host_cores()),
            config: config.clone(),
            tiers,
        });
        let workers = (0..config.n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Round-robin deal: worker i serves shard i % n_shards, so
                // every shard owns ⌈workers/shards⌉ or ⌊workers/shards⌋.
                let shard_idx = i % n_shards;
                std::thread::Builder::new()
                    .name(format!("sd-serve-{i}"))
                    .spawn(move || Worker::new(shared, shard_idx).run())
                    .expect("spawn worker")
            })
            .collect();
        let reporter = config
            .reporter
            .map(|rc| Reporter::spawn(Arc::clone(&shared), rc));
        let controller = core_budget.map(|cb| Controller::spawn(Arc::clone(&shared), cb));
        ServeRuntime {
            shared,
            workers,
            reporter,
            controller,
        }
    }

    /// Admission, for both request shapes: stamp the request, validate it,
    /// route it by its channel hash to its affinity shard, apply the
    /// predictive gate, and offer it to that shard's bounded queue. A
    /// malformed request, or a full (or closing) queue, hands it back with
    /// the reason at once — load is shed at the door, and nothing a worker
    /// cannot decode ever reaches one; the depth in a `QueueFull` is that
    /// shard's, not the global backlog. Every counter weighs the request by
    /// its receive vectors, so `accepted == served` stays closed over mixed
    /// traffic.
    // The large Err is the contract: shedding hands the request (and its
    // frame buffers) straight back without touching the allocator.
    #[allow(clippy::result_large_err)]
    fn admit(&self, request: Request) -> Result<(), (Request, RejectReason)> {
        use std::sync::atomic::Ordering::Relaxed;
        let enqueued_at = Instant::now();
        let b = request.frames().len() as u64;
        let m = &self.shared.metrics;
        let hash = match validate(request.frames()) {
            Ok(hash) => hash,
            Err(reason) => {
                m.rejected_malformed.fetch_add(b, Relaxed);
                return Err((request, reason));
            }
        };
        let idx = (hash % self.shared.shards.len() as u64) as usize;
        let shard = &self.shared.shards[idx];
        if let Some(predicted_wait) = self.predicted_late(shard, request.deadline()) {
            m.rejected_predicted.fetch_add(b, Relaxed);
            return Err((request, RejectReason::PredictedLate { predicted_wait }));
        }
        let cost_ns = self.admission_cost_ns(shard, &request);
        shard.queued_cost_ns.fetch_add(cost_ns, Relaxed);
        let item = Ingress {
            request,
            enqueued_at,
            hash,
            cost_ns,
        };
        let (item, reason, counter) = match shard.queue.try_push(item) {
            Ok(()) => {
                m.accepted.fetch_add(b, Relaxed);
                m.shards[idx].routed.fetch_add(b, Relaxed);
                return Ok(());
            }
            Err(PushError::Full(item, depth)) => {
                (item, RejectReason::QueueFull { depth }, &m.rejected_full)
            }
            Err(PushError::Closed(item)) => {
                (item, RejectReason::ShuttingDown, &m.rejected_shutdown)
            }
        };
        shard.queued_cost_ns.fetch_sub(cost_ns, Relaxed);
        counter.fetch_add(b, Relaxed);
        Err((item.request, reason))
    }

    /// Offer a request. Returns it as [`Rejected`] when its affinity
    /// shard's queue is full, the predictive gate sheds it, or the runtime
    /// is shutting down.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, req: DetectionRequest) -> Result<(), Rejected> {
        self.admit(Request::Vector(req))
            .map_err(|(request, reason)| match request {
                Request::Vector(request) => Rejected { request, reason },
                Request::Frame(_) => unreachable!("admission hands back what it was offered"),
            })
    }

    /// Offer a whole coherence block as one unit, routed by its shared
    /// `H` like the vectors repeating that `H`. Returns it as
    /// [`RejectedFrame`] on refusal.
    #[allow(clippy::result_large_err)]
    pub fn submit_frame(&self, req: FrameRequest) -> Result<(), RejectedFrame> {
        self.admit(Request::Frame(req))
            .map_err(|(request, reason)| match request {
                Request::Frame(request) => RejectedFrame { request, reason },
                Request::Vector(_) => unreachable!("admission hands back what it was offered"),
            })
    }

    /// The predictive-admission check: `Some(predicted_wait)` when the
    /// gate is on and `shard`'s queued-cost gauge — the sum of the
    /// *per-tier* cost stamps of everything still queued there, drained by
    /// its workers — is predicted to outlast `deadline`: the offered item
    /// would be a guaranteed miss before any of its *own* work even
    /// starts. Because every stamp prices its item from the tier the
    /// ladder would actually run (not a tier-blind mean), a backlog of
    /// cheap floor-tier items no longer sheds requests that an exact-tier
    /// backlog of the same length would.
    fn predicted_late(&self, shard: &Shard, deadline: Duration) -> Option<Duration> {
        use std::sync::atomic::Ordering::Relaxed;
        if !self.shared.config.predictive_admission {
            return None;
        }
        let backlog_ns = shard.queued_cost_ns.load(Relaxed) as f64;
        let wait_ns = backlog_ns / shard.n_workers.max(1) as f64;
        (wait_ns > deadline.as_nanos() as f64)
            .then(|| Duration::from_nanos(wait_ns.min(u64::MAX as f64) as u64))
    }

    /// Price an offered request for the queued-cost gauge: the service
    /// time the shard's cost model predicts for the tier the ladder would
    /// pick with the whole deadline still ahead, times the block size. Runs
    /// the same `choose_tier` walk the worker will (condition gating
    /// skipped — the condition number is not known until the worker
    /// computes it), so the stamp tracks what the item will actually cost
    /// rather than a tier-blind mean. Returns 0 when predictive admission
    /// is off: the gauge then has no reader and the submit path stays
    /// stamp-free.
    fn admission_cost_ns(&self, shard: &Shard, request: &Request) -> u64 {
        if !self.shared.config.predictive_admission {
            return 0;
        }
        let tiers = &self.shared.tiers;
        let frames = request.frames();
        let (snr_db, m, block) = (request.snr_db(), frames[0].h.cols(), frames.len());
        let p = tiers[0].detector.constellation().order();
        let d = choose_tier(
            &self.shared.config.ladder,
            &shard.model,
            tiers,
            snr_db,
            None,
            m,
            p,
            request.deadline(),
            block,
        );
        let per_vector = shard
            .model
            .predict_ns(d.tier, &tiers[d.tier].cost, snr_db, None, m, p);
        (per_vector * block as f64).min(u64::MAX as f64) as u64
    }

    /// Collect one response without blocking.
    pub fn try_collect(&self) -> Option<DetectionResponse> {
        self.shared.out.try_pop()
    }

    /// Collect one response, waiting up to `timeout`.
    pub fn collect_timeout(&self, timeout: Duration) -> Option<DetectionResponse> {
        self.shared.out.pop_timeout(timeout)
    }

    /// Collect one frame response without blocking.
    pub fn try_collect_frame(&self) -> Option<FrameResponse> {
        self.shared.out_frames.try_pop()
    }

    /// Collect one frame response, waiting up to `timeout`.
    pub fn collect_frame_timeout(&self, timeout: Duration) -> Option<FrameResponse> {
        self.shared.out_frames.pop_timeout(timeout)
    }

    /// Return a response's detection buffer to the pool and hand the
    /// request (with its frame) back to the caller for reuse.
    pub fn recycle(&self, resp: DetectionResponse) -> DetectionRequest {
        self.shared
            .pool
            .lock()
            .expect(POOL_POISONED)
            .push(resp.detection);
        resp.request
    }

    /// Return a frame response's detection block to the frame pool and
    /// hand the request (with its subcarrier buffers) back for reuse.
    pub fn recycle_frame(&self, resp: FrameResponse) -> FrameRequest {
        self.shared
            .frame_pool
            .lock()
            .expect(POOL_POISONED)
            .push(resp.detections);
        resp.request
    }

    /// Gate the workers on every shard (requests keep queuing up to each
    /// shard's capacity). Stealing is gated too — a paused queue yields
    /// no loot.
    pub fn pause(&self) {
        for s in &self.shared.shards {
            s.queue.pause();
        }
    }

    /// Release the worker gates.
    pub fn resume(&self) {
        for s in &self.shared.shards {
            s.queue.resume();
        }
    }

    /// Current total ingress backlog (summed over shards).
    pub fn queue_depth(&self) -> usize {
        self.shared.total_depth()
    }

    /// Number of shards the runtime resolved at startup.
    pub fn n_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Snapshot the runtime metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(&self.shared.shard_depths())
    }

    /// Read-only view of shard 0's cost model (for reports; each shard
    /// learns its own model from the decodes it served).
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.shards[0].model
    }

    /// Labels of the registry tiers, in ladder order (index = tier id).
    pub fn tier_labels(&self) -> Vec<Arc<str>> {
        self.shared
            .tiers
            .iter()
            .map(|t| Arc::clone(&t.label))
            .collect()
    }

    /// Stop accepting work, drain every admitted request, join the
    /// workers, and return the final metrics together with any vector and
    /// frame responses the caller had not yet collected — nothing
    /// admitted is dropped.
    pub fn shutdown(mut self) -> (MetricsSnapshot, Vec<DetectionResponse>, Vec<FrameResponse>) {
        for s in &self.shared.shards {
            s.queue.close();
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
        if let Some(controller) = self.controller.take() {
            controller.stop();
        }
        if let Some(reporter) = self.reporter.take() {
            reporter.stop();
        }
        // Everything admitted has now been served; scoop up any responses
        // the caller has not collected so nothing is silently dropped.
        let mut leftover = Vec::new();
        while let Some(r) = self.shared.out.try_pop() {
            leftover.push(r);
        }
        let mut leftover_frames = Vec::new();
        while let Some(r) = self.shared.out_frames.try_pop() {
            leftover_frames.push(r);
        }
        (self.shared.metrics.snapshot(&[]), leftover, leftover_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

    fn request(id: u64, rng: &mut StdRng, c: &Constellation) -> DetectionRequest {
        let snr = 12.0;
        let f = FrameData::generate(4, 4, c, noise_variance(snr, 4), rng);
        DetectionRequest::new(id, f, snr, Duration::from_millis(10))
    }

    #[test]
    fn capacity_split_covers_total_and_floors_at_one() {
        assert_eq!(split_capacity(8, 3), vec![3, 3, 2]);
        assert_eq!(split_capacity(4, 4), vec![1, 1, 1, 1]);
        assert_eq!(split_capacity(2, 4), vec![1, 1, 1, 1], "rounds up");
        assert_eq!(split_capacity(256, 1), vec![256]);
    }

    #[test]
    fn default_allowance_tracks_the_host() {
        let n = default_core_allowance();
        assert!((1..=16).contains(&n));
        assert_eq!(n, host_cores().clamp(1, 16));
        assert_eq!(ServeConfig::default().n_workers, n);
    }

    #[test]
    fn shard_count_resolves_auto_and_clamps() {
        let c = Constellation::new(Modulation::Qam4);
        // 0 = one shard per worker.
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(3).with_shards(0),
            c.clone(),
        );
        assert_eq!(rt.n_shards(), 3);
        rt.shutdown();
        // More shards than workers clamps down, so no shard is orphaned.
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(2).with_shards(5),
            c.clone(),
        );
        assert_eq!(rt.n_shards(), 2);
        rt.shutdown();
    }

    #[test]
    fn serves_and_shuts_down() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(7);
        for id in 0..20 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut got = 0;
        while got < 20 {
            if rt.collect_timeout(Duration::from_secs(5)).is_some() {
                got += 1;
            } else {
                panic!("runtime stalled");
            }
        }
        let (snap, leftover, _) = rt.shutdown();
        assert!(leftover.is_empty());
        assert_eq!(snap.accepted, 20);
        assert_eq!(snap.served, 20);
        assert_eq!(snap.rejected_full + snap.rejected_shutdown, 0);
        assert_eq!(snap.host_cores, host_cores());
        assert_eq!(snap.n_shards, 1);
        assert_eq!(snap.shards[0].routed, 20);
        assert_eq!(snap.shards[0].served, 20);
        assert_eq!(snap.shards[0].affinity_served, 20);
    }

    #[test]
    fn sharded_runtime_routes_and_serves_everything() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(2).with_shards(2),
            c.clone(),
        );
        let mut rng = StdRng::seed_from_u64(77);
        for id in 0..40 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut got = 0;
        while got < 40 {
            assert!(
                rt.collect_timeout(Duration::from_secs(5)).is_some(),
                "sharded runtime stalled"
            );
            got += 1;
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.n_shards, 2);
        assert_eq!(snap.served, 40);
        let routed: u64 = snap.shards.iter().map(|s| s.routed).sum();
        let served: u64 = snap.shards.iter().map(|s| s.served).sum();
        assert_eq!(routed, snap.accepted, "routing partitions admission");
        assert_eq!(served, snap.served, "shard serves partition the total");
        assert!(
            snap.shards.iter().all(|s| s.routed > 0),
            "i.i.d. channels should spread across both shards: {:?}",
            snap.shards
        );
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1).paused(), c.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for id in 0..5 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        // Workers are gated; shutdown must still serve all 5.
        let (snap, leftover, _) = rt.shutdown();
        assert_eq!(snap.served, 5, "drain-then-join");
        assert_eq!(leftover.len(), 5, "uncollected responses handed back");
    }

    #[test]
    fn snapshot_never_reports_missed_above_served() {
        // Zero deadlines make every served request a miss; concurrent
        // snapshots taken mid-batch must still satisfy missed ≤ served
        // (the old per-batch `served` bump could report miss rates > 1).
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let mut submitted = 0u64;
        for id in 0..200 {
            let snr = 12.0;
            let f = FrameData::generate(4, 4, &c, noise_variance(snr, 4), &mut rng);
            if rt
                .submit(DetectionRequest::new(id, f, snr, Duration::ZERO))
                .is_ok()
            {
                submitted += 1;
            }
            let snap = rt.metrics();
            assert!(
                snap.deadline_missed <= snap.served,
                "missed {} > served {}",
                snap.deadline_missed,
                snap.served
            );
            assert!(snap.deadline_miss_rate <= 1.0);
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, submitted);
        assert_eq!(snap.deadline_missed, submitted, "zero deadline misses all");
        assert!((snap.deadline_miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reporter_thread_reports_and_stops() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(1)
                .with_reporter(Duration::from_millis(5), ExportFormat::JsonLines),
            c.clone(),
        );
        let mut rng = StdRng::seed_from_u64(11);
        for id in 0..8 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        // Let at least one reporting period elapse with the runtime live.
        std::thread::sleep(Duration::from_millis(25));
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, 8, "reporter must not disturb serving");
    }

    #[test]
    fn budget_controller_plans_and_stops() {
        let c = Constellation::new(Modulation::Qam4);
        let handle = Arc::new(WorkerBudget::new(1));
        let rt = ServeRuntime::start(
            ServeConfig::default().with_workers(1).with_core_budget(
                Arc::clone(&handle),
                CoreBudgetPolicy {
                    cores: 4,
                    period: Duration::from_millis(5),
                    ..CoreBudgetPolicy::default()
                },
            ),
            c.clone(),
        );
        // The controller starts on the latency plan immediately.
        assert_eq!(handle.get(), 4);
        assert_eq!(rt.metrics().core_budget, 4);
        let mut rng = StdRng::seed_from_u64(12);
        for id in 0..8 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(25));
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.served, 8, "controller must not disturb serving");
        assert!(snap.core_budget >= 1);
    }

    fn frame_request(id: u64, block: usize, rng: &mut StdRng, c: &Constellation) -> FrameRequest {
        let snr = 12.0;
        let sigma2 = noise_variance(snr, 4);
        let base = FrameData::generate(4, 4, c, sigma2, rng);
        let subcarriers = (0..block)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(4, 4, c, sigma2, rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect();
        FrameRequest::new(id, subcarriers, snr, Duration::from_millis(50))
    }

    #[test]
    fn frames_round_trip_with_subcarrier_accounting() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(2), c.clone());
        let mut rng = StdRng::seed_from_u64(21);
        for id in 0..4 {
            rt.submit_frame(frame_request(id, 8, &mut rng, &c)).unwrap();
        }
        // Mixed traffic: a couple of plain vectors ride along.
        for id in 100..102 {
            rt.submit(request(id, &mut rng, &c)).unwrap();
        }
        let mut frames = Vec::new();
        while frames.len() < 4 {
            match rt.collect_frame_timeout(Duration::from_secs(5)) {
                Some(f) => frames.push(f),
                None => panic!("frame path stalled"),
            }
        }
        for f in &frames {
            assert_eq!(f.detections.len(), 8, "one detection per subcarrier");
            assert_eq!(f.prep_factors, 1, "shared-prep path on the stock registry");
        }
        for f in frames {
            rt.recycle_frame(f);
        }
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.frames_served, 4);
        // Six distinct channels, each factored once: four frames of eight
        // subcarriers plus two vectors.
        assert_eq!(snap.prep_factors, 4 + 2);
        assert!((snap.prep_amortization - 34.0 / 6.0).abs() < 1e-12);
        assert_eq!(snap.prep_cache_misses, 34, "a miss counts every subcarrier");
        // Vector-level counters stay closed over the mixture.
        assert_eq!(snap.accepted, 32 + 2);
        assert_eq!(snap.served, 32 + 2);
        assert_eq!(
            snap.prep_cache_hits + snap.prep_cache_misses + snap.prep_cache_bypass,
            snap.served
        );
        // Shard accounting weighs frames by their subcarriers.
        assert_eq!(snap.shards[0].routed, 34);
        assert_eq!(snap.shards[0].served, 34);
    }

    #[test]
    fn shutdown_hands_back_uncollected_frames() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(22);
        for id in 0..3 {
            rt.submit_frame(frame_request(id, 4, &mut rng, &c)).unwrap();
        }
        let (snap, _, leftover_frames) = rt.shutdown();
        assert_eq!(snap.frames_served, 3, "drain-then-join covers frames");
        assert_eq!(leftover_frames.len(), 3, "uncollected frames handed back");
    }

    #[test]
    fn recycle_frame_returns_block_ownership() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(23);
        rt.submit_frame(frame_request(7, 5, &mut rng, &c)).unwrap();
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(5))
            .expect("served");
        assert_eq!(resp.request.id, 7);
        let req = rt.recycle_frame(resp);
        assert_eq!(req.block_len(), 5);
        rt.submit_frame(req).unwrap();
        let resp = rt
            .collect_frame_timeout(Duration::from_secs(5))
            .expect("served again");
        assert_eq!(resp.request.id, 7);
        rt.shutdown();
    }

    #[test]
    fn recycle_returns_request_ownership() {
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(ServeConfig::default().with_workers(1), c.clone());
        let mut rng = StdRng::seed_from_u64(9);
        rt.submit(request(42, &mut rng, &c)).unwrap();
        let resp = rt.collect_timeout(Duration::from_secs(5)).expect("served");
        assert_eq!(resp.request.id, 42);
        let req = rt.recycle(resp);
        assert_eq!(req.id, 42);
        rt.submit(req).unwrap();
        let resp = rt.collect_timeout(Duration::from_secs(5)).expect("served");
        assert_eq!(resp.request.id, 42);
        rt.shutdown();
    }

    /// Regression for the tier-blind admission estimate: a backlog of
    /// cheap k-best-tier requests must not shed a probe that the queue
    /// could absorb hundreds of times over, even when the shard's blended
    /// service time is dominated by exact-tier milliseconds. A
    /// `backlog × mean service time` estimate priced 20 queued items at a
    /// ≈80 ms blended mean, predicted a 1.6 s wait and shed the 5 ms
    /// probe; the per-tier cost stamps price them at ≈15 µs each and admit
    /// it. The same gauge still sheds the probe once genuinely expensive
    /// exact-tier work is queued — the gate lost no teeth.
    #[test]
    fn mixed_tier_backlog_does_not_shed_cheap_requests() {
        use crate::budget::TierCostClass;
        let c = Constellation::new(Modulation::Qam4);
        let rt = ServeRuntime::start(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_predictive_admission(true)
                .paused(),
            c.clone(),
        );
        // Train the shard model directly (the runtime is paused, so the
        // EWMAs are exactly what we write): the exact tier costs 100 ms
        // per vector (1e6 nodes at 100 ns/node), the floor tier 1 µs.
        // Their blended mean lands near 80 ms — the figure a tier-blind
        // estimate would price *every* queued item at.
        let model = &rt.shared.shards[0].model;
        model.observe(
            0,
            &TierCostClass::Adaptive,
            12.0,
            None,
            1_000_000,
            100_000_000,
        );
        model.observe(2, &TierCostClass::Linear, 12.0, None, 0, 1_000);

        let mut rng = StdRng::seed_from_u64(31);
        let mut req_with_deadline = |id: u64, deadline: Duration| {
            let f = FrameData::generate(4, 4, &c, noise_variance(12.0, 4), &mut rng);
            DetectionRequest::new(id, f, 12.0, deadline)
        };
        // 20 cheap requests: a 1 ms deadline rides the k-best tier
        // (148 nodes × 100 ns ≈ 15 µs per stamp, ≈ 0.3 ms queued total).
        for id in 0..20 {
            rt.submit(req_with_deadline(id, Duration::from_millis(1)))
                .expect("cheap-tier backlog must keep admitting cheap work");
        }
        // The probe the old estimate shed: 5 ms deadline against a queued
        // cost of ≈0.3 ms. Must be admitted.
        rt.submit(req_with_deadline(100, Duration::from_millis(5)))
            .expect("regression: tier-blind mean over-shed this probe");
        // Queue genuinely expensive work: 10 s deadlines ride the exact
        // tier at ≈100 ms per stamp.
        for id in 200..203 {
            rt.submit(req_with_deadline(id, Duration::from_secs(10)))
                .expect("expensive work within its own deadline is admissible");
        }
        // Now an identical probe *should* shed: ≈300 ms queued > 5 ms.
        let rej = rt
            .submit(req_with_deadline(101, Duration::from_millis(5)))
            .expect_err("exact-tier backlog must still trip the gate");
        assert!(matches!(rej.reason, RejectReason::PredictedLate { .. }));

        rt.resume();
        let (snap, _, _) = rt.shutdown();
        assert_eq!(snap.rejected_predicted, 1);
        assert_eq!(snap.served, 24, "everything admitted is served");
    }
}
