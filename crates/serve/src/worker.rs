//! The worker loop: drain a batch from the worker's shard, decode each
//! item at its ladder rung, push the batch of responses.
//!
//! Each worker owns every scratch buffer the decode path needs
//! ([`PrepScratch`], [`SearchWorkspace`], a reusable [`Prepared`] and
//! [`BlockPrep`], the batch and response vectors, a batch-level stats
//! accumulator), so the steady-state path performs **zero heap
//! allocations per request**: the registry tiers are driven entirely
//! through [`sd_core::PreparedDetector`]'s `_into` entry points, which
//! write into recycled [`Detection`] slots from the runtime's response
//! pools, and all synchronization costs (ingress lock, response push,
//! metrics merge) are paid once per batch. Because every tier speaks the
//! same engine trait, the worker has no per-detector code at all —
//! serving a new tier is purely a registry entry.
//!
//! A worker is pinned to one shard: its ladder decisions consult that
//! shard's [`crate::budget::CostModel`] and its cacheable preparations go
//! through that shard's [`crate::prep_cache::PrepCache`], which affinity
//! routing keeps hot for the channels hashed there. When the shard's
//! queue runs dry (a bounded [`BatchPop::Empty`] wait), the worker
//! **steals** whole queue items from the other shards — at most half a
//! victim's backlog per raid, round-robin from its right-hand neighbor —
//! so an imbalanced hash never idles a core. Stolen work is decoded with
//! the thief's scratch and the thief shard's cache/model; results are
//! bit-identical because every tier's decode depends only on the request,
//! never on which worker ran it.
//!
//! Every item is a block of `B ≥ 1` receive vectors sharing one channel
//! (a [`crate::DetectionRequest`] is a block of one), decoded by one body:
//! one ladder decision scaled by `B`, one channel preparation — a single
//! prep-cache lookup on cacheable tiers, counted `B` times as a hit, miss
//! or bypass — and one decode. On level-synchronous tiers a block of two
//! or more takes the cross-subcarrier **fused** decode (one GEMM batch per
//! tree level for the whole block); a single vector, and every other
//! tier, runs the scalar search per subcarrier. Either way every vector's
//! result is bit-identical to decoding it alone.

use crate::budget::CostModel;
use crate::ladder::choose_tier;
use crate::prep_cache::PrepCache;
use crate::queue::BatchPop;
use crate::request::{DetectionResponse, FrameResponse};
use crate::runtime::{Ingress, Request, Shared, POOL_POISONED};
use sd_core::{
    decode_block_budgeted_into, prepare_frame_block_into, BlockPrep, ChannelObservables,
    ChannelPrep, Detection, DetectionStats, PrepScratch, Prepared, SearchWorkspace,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle worker blocks on its own shard before scanning the
/// other shards for stealable backlog. Short enough that a core never
/// idles behind a loaded neighbor, long enough that a busy runtime pays
/// no scan overhead at all.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// Where one item's detections are written: a pooled slot for a vector,
/// a pooled block for a frame.
enum Slots {
    One(Detection),
    Block(Vec<Detection>),
}

pub(crate) struct Worker {
    shared: Arc<Shared>,
    /// The shard this worker drains and attributes its serving to.
    shard_idx: usize,
    /// Constellation order `P`, an input to the analytic cost curves.
    order: usize,
    prep_scratch: PrepScratch<f64>,
    /// Channel factorized on a cache miss, or copied out on a block hit.
    chan: ChannelPrep<f64>,
    prep: Prepared<f64>,
    block: BlockPrep<f64>,
    ws: SearchWorkspace<f64>,
    batch: Vec<Ingress>,
    done: Vec<DetectionResponse>,
    done_frames: Vec<FrameResponse>,
    batch_stats: DetectionStats,
}

impl Worker {
    pub(crate) fn new(shared: Arc<Shared>, shard_idx: usize) -> Self {
        Worker {
            shard_idx,
            order: shared.tiers[0].detector.constellation().order(),
            prep_scratch: PrepScratch::new(),
            chan: ChannelPrep::new(),
            prep: Prepared::empty(),
            block: BlockPrep::new(),
            ws: SearchWorkspace::new(),
            batch: Vec::new(),
            done: Vec::new(),
            done_frames: Vec::new(),
            batch_stats: DetectionStats::default(),
            shared,
        }
    }

    /// This worker's shard-local cost model.
    fn model(&self) -> &CostModel {
        &self.shared.shards[self.shard_idx].model
    }

    pub(crate) fn run(mut self) {
        use std::sync::atomic::Ordering::Relaxed;
        let policy = self.shared.config.batch;
        let n_shards = self.shared.shards.len();
        let stealing = self.shared.config.steal && n_shards > 1;
        loop {
            let mut batch = std::mem::take(&mut self.batch);
            batch.clear();
            // The shard the batch came from: ours, or a steal victim.
            let mut source = self.shard_idx;
            if stealing {
                let own = &self.shared.shards[self.shard_idx].queue;
                match own.pop_batch_timeout(
                    &mut batch,
                    policy.max_batch,
                    policy.max_wait,
                    STEAL_POLL,
                ) {
                    BatchPop::Closed => {
                        self.batch = batch;
                        return; // closed and drained: shutdown
                    }
                    BatchPop::Batch => {}
                    BatchPop::Empty => {
                        // Own queue is dry: raid the neighbors, starting to
                        // the right so thieves spread across victims.
                        for k in 1..n_shards {
                            let victim = (self.shard_idx + k) % n_shards;
                            let got = self.shared.shards[victim]
                                .queue
                                .steal_into(&mut batch, policy.max_batch);
                            if got > 0 {
                                let weight: u64 = batch.iter().map(Ingress::weight).sum();
                                let m = &self.shared.metrics;
                                m.shards[self.shard_idx]
                                    .stolen_in
                                    .fetch_add(weight, Relaxed);
                                m.shards[victim].stolen_out.fetch_add(weight, Relaxed);
                                source = victim;
                                break;
                            }
                        }
                        if batch.is_empty() {
                            self.batch = batch;
                            continue; // nothing anywhere: block on our shard again
                        }
                    }
                }
            } else if !self.shared.shards[self.shard_idx].queue.pop_batch(
                &mut batch,
                policy.max_batch,
                policy.max_wait,
            ) {
                self.batch = batch;
                return; // closed and drained: shutdown
            }
            // Drained work leaves its shard's backlog, stolen or not: the
            // admission gauge must shrink with it.
            let cost: u64 = batch.iter().map(|i| i.cost_ns).sum();
            self.shared.shards[source]
                .queued_cost_ns
                .fetch_sub(cost, Relaxed);
            let stolen = source != self.shard_idx;
            let size = batch.len();
            self.batch_stats.reset(0);
            for item in batch.drain(..) {
                self.serve(item, stolen);
            }
            self.batch = batch;
            let m = &self.shared.metrics;
            m.batches.fetch_add(1, Relaxed);
            m.batch_items.fetch_add(size as u64, Relaxed);
            m.merge_stats(&self.batch_stats);
            self.shared.out.push_all(&mut self.done);
            self.shared.out_frames.push_all(&mut self.done_frames);
        }
    }

    /// Decode one item — a block of `B ≥ 1` receive vectors sharing one
    /// channel — and queue its response: one ladder decision (per-vector
    /// cost scaled by `B`), one channel preparation, one decode, and
    /// every counter weighed by `B`. On a cacheable tier with the cache
    /// on, the preparation is one lookup in the shard's prep cache (whose
    /// lock is never held for a QR, a block apply or the search);
    /// everything else prepares its own channel. Every served vector is
    /// exactly one cache hit, miss or bypass, so
    /// `hits + misses + bypass == served`.
    fn serve(&mut self, item: Ingress, stolen: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        let started = Instant::now();
        let queue_wait = started.saturating_duration_since(item.enqueued_at);
        let frames = item.request.frames();
        let (b, snr_db, deadline) = (frames.len(), item.request.snr_db(), item.request.deadline());
        let m = frames[0].h.cols();
        // The pre-decode complexity observable: the channel's conditioning
        // proxy, computed from column norms in O(NM) — far cheaper than
        // the QR it predicts for.
        let cond = ChannelObservables::from_channel(&frames[0].h).condition_log2();
        let decision = choose_tier(
            &self.shared.config.ladder,
            self.model(),
            &self.shared.tiers,
            snr_db,
            Some(cond),
            m,
            self.order,
            deadline.saturating_sub(queue_wait),
            b,
        );
        let tier_idx = decision.tier;
        let tier = &self.shared.tiers[tier_idx];
        let det = &*tier.detector;
        // Sample the prediction the ladder acted on, so the validation
        // histogram measures exactly the model the decision saw.
        let predicted_ns =
            self.model()
                .predict_ns(tier_idx, &tier.cost, snr_db, Some(cond), m, self.order)
                * b as f64;

        let mut slots = match item.request {
            Request::Vector(_) => Slots::One(
                self.shared
                    .pool
                    .lock()
                    .expect(POOL_POISONED)
                    .pop()
                    .unwrap_or_default(),
            ),
            Request::Frame(_) => {
                let mut dets = self
                    .shared
                    .frame_pool
                    .lock()
                    .expect(POOL_POISONED)
                    .pop()
                    .unwrap_or_default();
                dets.resize_with(b, Detection::default);
                Slots::Block(dets)
            }
        };
        let out = match &mut slots {
            Slots::One(d) => std::slice::from_mut(d),
            Slots::Block(dets) => &mut dets[..],
        };
        let metrics = &self.shared.metrics;
        let sm = &metrics.shards[self.shard_idx];
        let budget = &decision.budget;
        // Channel-coherent preparation: the shared QR split goes through
        // the shard's factorization cache, so requests repeating one H —
        // which affinity routing lands on this shard — skip the QR.
        // Bit-identical either way; `prep_flops` is charged in full on
        // hits so complexity accounting stays comparable.
        let cached = self.shared.config.prep_cache > 0 && det.channel_cacheable();
        let hit = cached.then(|| {
            PrepCache::prepare(
                &self.shared.shards[self.shard_idx].prep_cache,
                tier_idx,
                item.hash,
                det,
                frames,
                &mut self.prep_scratch,
                &mut self.chan,
                &mut self.block,
                &mut self.prep,
            )
        });
        let (global, shard) = match hit {
            Some(true) => (&metrics.prep_cache_hits, &sm.prep_hits),
            Some(false) => (&metrics.prep_cache_misses, &sm.prep_misses),
            None => (&metrics.prep_cache_bypass, &sm.prep_bypass),
        };
        global.fetch_add(b as u64, Relaxed);
        shard.fetch_add(b as u64, Relaxed);
        let (prep_factors, fused) = if !det.channel_cacheable() {
            // Bespoke per-vector preparation (the linear family, the
            // real-valued decomposition): nothing to cache or fuse.
            let factors = decode_block_budgeted_into(
                det,
                frames,
                budget,
                &mut self.prep_scratch,
                &mut self.block,
                &mut self.prep,
                &mut self.ws,
                out,
            );
            (factors, false)
        } else {
            if hit.is_none() {
                prepare_frame_block_into(
                    frames,
                    det.constellation(),
                    det.ordering(),
                    &mut self.prep_scratch,
                    &mut self.block,
                    &mut self.prep,
                );
            }
            // A single vector takes the scalar search: the fused engines'
            // block bookkeeping costs one vector more than it saves.
            let fused = if b == 1 {
                let f = &frames[0];
                let r2 = det.initial_radius_sqr(f.h.rows(), f.noise_variance);
                det.detect_prepared_budgeted_into(
                    &self.prep,
                    r2,
                    budget,
                    &mut self.ws,
                    &mut out[0],
                );
                false
            } else {
                det.detect_block_prepared_budgeted_into(
                    &self.block,
                    frames,
                    budget,
                    &mut self.prep,
                    &mut self.ws,
                    out,
                )
            };
            (usize::from(hit != Some(true)), fused)
        };

        let service_time = started.elapsed();
        let latency = queue_wait + service_time;
        let deadline_missed = latency > deadline;

        // Factorizations are counted *before* the vectors they serve, so a
        // concurrent snapshot (which loads `served` first) can only
        // under-report `prep_amortization = served / prep_factors`.
        metrics.prep_factors.fetch_add(prep_factors as u64, Relaxed);
        let tm = &metrics.tiers[tier_idx];
        tm.served.fetch_add(b as u64, Relaxed);
        let service_ns = service_time.as_nanos() as u64;
        tm.predict_err_ns
            .record((predicted_ns as i64 - service_ns as i64).unsigned_abs());
        // `served` is bumped *before* any miss increment, so a concurrent
        // snapshot (which loads `deadline_missed` first) never observes
        // missed > served.
        metrics.served.fetch_add(b as u64, Relaxed);
        sm.served.fetch_add(b as u64, Relaxed);
        if !stolen {
            sm.affinity_served.fetch_add(b as u64, Relaxed);
        }
        if deadline_missed {
            metrics.deadline_missed.fetch_add(b as u64, Relaxed);
        }
        // Every served vector is exactly one of the two:
        // quality_exact + budget_exhausted == served.
        let truncated = out
            .iter()
            .filter(|d| d.stats.quality.is_truncated())
            .count() as u64;
        metrics.budget_exhausted.fetch_add(truncated, Relaxed);
        metrics
            .quality_exact
            .fetch_add(b as u64 - truncated, Relaxed);
        metrics.latency_ns.record(latency.as_nanos() as u64);
        metrics.queue_wait_ns.record(queue_wait.as_nanos() as u64);
        let mut nodes = 0;
        for d in out.iter() {
            nodes += d.stats.nodes_generated;
            self.batch_stats.merge(&d.stats);
        }
        // One observation per item at per-vector granularity, so the cost
        // model keeps predicting single-vector service time and the
        // ladder's block scaling stays dimensionally consistent.
        self.model().observe(
            tier_idx,
            &tier.cost,
            snr_db,
            Some(cond),
            nodes / b as u64,
            service_ns / b as u64,
        );

        let tier_label = Arc::clone(&tier.label);
        match (item.request, slots) {
            (Request::Vector(request), Slots::One(detection)) => {
                self.done.push(DetectionResponse {
                    request,
                    detection,
                    tier: tier_idx,
                    tier_label,
                    queue_wait,
                    service_time,
                    latency,
                    deadline_missed,
                });
            }
            (Request::Frame(request), Slots::Block(detections)) => {
                metrics.frames_served.fetch_add(1, Relaxed);
                if fused {
                    metrics.frames_fused.fetch_add(1, Relaxed);
                }
                self.done_frames.push(FrameResponse {
                    request,
                    detections,
                    tier: tier_idx,
                    tier_label,
                    prep_factors,
                    queue_wait,
                    service_time,
                    latency,
                    deadline_missed,
                });
            }
            _ => unreachable!("the slots follow the request shape"),
        }
    }
}
