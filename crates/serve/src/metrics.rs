//! Lock-light runtime metrics, each declared once.
//!
//! Every metric is one entry of a `metric_set!` declaration: its field,
//! its kind, its help text (the entry's doc line) and, through the set it
//! belongs to, its label. The declaration generates the storage the hot
//! path writes (an `AtomicU64` per counter, a [`Log2Histogram`] per
//! summary — one relaxed atomic op at a fixed address per record), the
//! plain-data snapshot the load harness reads, and the rows both export
//! renderers ([`crate::export`]) walk, so adding a counter touches one
//! place. Three sets exist: the runtime-wide [`Metrics`], one
//! [`ShardMetrics`] per shard (label `shard`) and one [`TierMetrics`] per
//! registry tier (label `tier`). Counts are per receive vector: a frame
//! of `B` subcarriers counts `B` wherever a vector counts one. The only
//! lock is the per-*batch* [`DetectionStats`] merge, amortized by the
//! batcher.

use sd_core::DetectionStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const N_BUCKETS: usize = 64;

/// Histogram over power-of-two buckets: bucket `i` counts values with
/// `floor(log2(v)) == i` (value 0 lands in bucket 0). Records are one
/// relaxed atomic increment; quantiles are computed from a snapshot and
/// are upper bounds (bucket upper edge), so p50/p99 never understate.
pub struct Log2Histogram {
    buckets: [AtomicU64; N_BUCKETS],
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        let idx = 63 - (v | 1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current bucket counts.
    pub fn counts(&self) -> [u64; N_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total records in a snapshot.
    pub fn total(counts: &[u64; N_BUCKETS]) -> u64 {
        counts.iter().sum()
    }

    /// Quantile `q` in `[0, 1]` from snapshotted counts, as the upper edge
    /// of the containing bucket; 0 when empty. The top bucket has no finite
    /// upper edge, so it saturates to its lower edge (`2^63`) — still an
    /// honest "at least this much" figure, without the `u64::MAX` sentinel
    /// poisoning every downstream µs conversion.
    pub fn quantile(counts: &[u64; N_BUCKETS], q: f64) -> u64 {
        let total = Self::total(counts);
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i >= N_BUCKETS - 1 {
                    1u64 << (N_BUCKETS - 1)
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        1u64 << (N_BUCKETS - 1)
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// How an export row is exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A monotone count; Prometheus appends `_total` to its name.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// One quantile of a summary; the label value is the quantile.
    Quantile(&'static str),
}

/// A value read off a snapshot for export.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Value {
    Int(u64),
    Float(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// One exported series of a metric set, as its declaration states it.
pub(crate) struct Row<S> {
    /// The JSON key, and the Prometheus name (after the set's prefix) of
    /// a counter or gauge.
    pub(crate) key: &'static str,
    /// The Prometheus family name: a summary's quantile rows share one.
    pub(crate) family: &'static str,
    pub(crate) kind: Kind,
    pub(crate) help: &'static str,
    pub(crate) read: fn(&S) -> Value,
}

/// `num / den`, 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A stored entry's export key: its field name, or the name after `as`.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $name:literal) => {
        $name
    };
}

/// Declare a metric set: an atomic struct the hot path writes, its
/// snapshot struct, and the set's export rows, all from one entry per
/// metric. Entries come in three groups: `stored` values live in an
/// `AtomicU64` (`Counter`s are added to, `Gauge`s stored); `summaries`
/// live in a [`Log2Histogram`] and snapshot as the listed quantiles (µs);
/// `derived` values are computed at snapshot time from the loaded ones,
/// the snapshot's other fields and the `inputs`. Each entry's single doc
/// line is both its field documentation and its export help text.
/// Counters load in declaration order, so a counter that must never read
/// above another is declared (and loaded) first.
macro_rules! metric_set {
    (
        $(#[$am:meta])*
        pub struct $A:ident { $( $(#[$xam:meta])* $xav:vis $xa:ident : $xaty:ty, )* }
        $(#[$sm:meta])*
        pub struct $S:ident { $( $(#[$xsm:meta])* $xs:ident : $xsty:ty, )* }
        inputs($( $in:ident : $inty:ty ),*);
        stored { $( #[doc = $ch:literal] $ck:ident $c:ident $(as $cn:literal)?, )* }
        summaries {
            $( #[doc = $hh:literal] $h:ident as $hn:literal [ $( $q:ident @ $ql:literal ),+ ], )*
        }
        derived { $( #[doc = $gh:literal] $gk:ident $g:ident : $gty:ty = $ge:expr, )* }
    ) => {
        $(#[$am])*
        pub struct $A {
            $( $(#[$xam])* $xav $xa: $xaty, )*
            $( #[doc = $ch] pub $c: AtomicU64, )*
            $( #[doc = $hh] pub $h: Log2Histogram, )*
        }

        $(#[$sm])*
        #[derive(Clone, Debug)]
        pub struct $S {
            $( $(#[$xsm])* pub $xs: $xsty, )*
            $( #[doc = $ch] pub $c: u64, )*
            $( $( #[doc = $hh] pub $q: f64, )+ )*
            $( #[doc = $gh] pub $g: $gty, )*
        }

        impl $A {
            /// Zeroed counters and histograms around the set's other fields.
            fn zeroed($( $xa: $xaty ),*) -> Self {
                $A {
                    $( $xa, )*
                    $( $c: AtomicU64::new(0), )*
                    $( $h: Log2Histogram::new(), )*
                }
            }

            /// Load the counters in declaration order, read the summary
            /// quantiles, then evaluate the derived values.
            fn load(&self, $( $xs: $xsty, )* $( $in: $inty ),*) -> $S {
                $( let $c = self.$c.load(Ordering::Relaxed); )*
                $(
                    let counts = self.$h.counts();
                    $( let $q = Log2Histogram::quantile(&counts, $ql) as f64 / 1e3; )+
                )*
                $( let $g: $gty = $ge; )*
                $S { $( $xs, )* $( $c, )* $( $( $q, )+ )* $( $g, )* }
            }
        }

        impl $S {
            /// The set's export rows, in declaration order.
            pub(crate) const ROWS: &'static [Row<$S>] = &[
                $(
                    Row {
                        key: key!($c $($cn)?),
                        family: key!($c $($cn)?),
                        kind: Kind::$ck,
                        help: $ch,
                        read: |s| Value::from(s.$c),
                    },
                )*
                $( $(
                    Row {
                        key: stringify!($q),
                        family: $hn,
                        kind: Kind::Quantile(stringify!($ql)),
                        help: $hh,
                        read: |s| Value::from(s.$q),
                    },
                )+ )*
                $(
                    Row {
                        key: stringify!($g),
                        family: stringify!($g),
                        kind: Kind::$gk,
                        help: $gh,
                        read: |s| Value::from(s.$g),
                    },
                )*
            ];
        }
    };
}

metric_set! {
    /// Per-tier hot-path counters, one set per registry tier.
    pub struct TierMetrics {
        /// The tier's registry label.
        pub label: Arc<str>,
    }
    /// One tier's plain-data view at snapshot time.
    pub struct TierSnapshot {
        /// The tier's registry label.
        label: Arc<str>,
    }
    inputs();
    stored {
        /// Responses served per ladder tier.
        Counter served,
    }
    summaries {
        /// Cost-model |predicted-actual| decode time per tier (µs, bucket upper bound).
        predict_err_ns as "predict_err_us" [p50_predict_err_us @ 0.5, p99_predict_err_us @ 0.99],
    }
    derived {}
}

metric_set! {
    /// Per-shard hot-path counters, one set per runtime shard. Summed over
    /// shards these close the global invariants (`Σ routed == accepted`,
    /// `Σ served == served`, per-shard `hits + misses + bypass == served`);
    /// individually they show where affinity routing sent the traffic and
    /// how much of it was stolen away.
    pub struct ShardMetrics {}
    /// One shard's plain-data view at snapshot time (see [`ShardMetrics`]).
    pub struct ShardSnapshot {}
    inputs(depth: usize);
    stored {
        /// Items admission routed to this shard.
        Counter routed,
        /// Items served by this shard's workers.
        Counter served,
        /// Items served from this shard's own affinity-routed queue.
        Counter affinity_served,
        /// Items this shard's workers stole from other shards.
        Counter stolen_in,
        /// Items other shards stole from this queue.
        Counter stolen_out,
        /// Prep-cache hits on this shard.
        Counter prep_hits,
        /// Prep-cache misses on this shard.
        Counter prep_misses,
        /// Prep-cache bypasses on this shard.
        Counter prep_bypass,
    }
    summaries {}
    derived {
        /// This shard queue's backlog at snapshot time.
        Gauge queue_depth: usize = depth,
    }
}

metric_set! {
    /// Shared runtime counters, written on the hot path with relaxed
    /// atomics; only `stats` is merged once per batch.
    pub struct Metrics {
        /// Logical cores the host reported at startup (the default worker
        /// and core-budget allowance derive from it).
        pub host_cores: usize,
        /// Per-shard counters, indexed by shard.
        pub shards: Vec<ShardMetrics>,
        /// Per-tier serve counters and cost-model error, indexed by tier.
        pub tiers: Vec<TierMetrics>,
        /// Aggregated decoder instrumentation, merged per batch.
        stats: Mutex<DetectionStats>,
    }
    /// Plain-data view of [`Metrics`] at one instant.
    pub struct MetricsSnapshot {
        /// Per-shard counters, indexed by shard.
        shards: Vec<ShardSnapshot>,
        /// Per-tier serve counts and cost-model error, indexed by tier.
        tiers: Vec<TierSnapshot>,
        /// Aggregated decoder instrumentation across all served requests.
        stats: DetectionStats,
    }
    inputs(host: usize, depths: &[usize]);
    stored {
        /// Requests admitted into the ingress queue.
        Counter accepted,
        /// Requests shed at admission (queue full).
        Counter rejected_full,
        /// Requests refused during shutdown.
        Counter rejected_shutdown,
        /// Requests shed by predictive admission (predicted wait exceeded the deadline).
        Counter rejected_predicted as "rejected_predicted_late",
        /// Responses that exceeded their deadline.
        Counter deadline_missed,
        /// Responses produced.
        Counter served,
        /// Responses whose search ran to completion (exact quality).
        Counter quality_exact,
        /// Responses truncated by their decode budget (anytime best-so-far).
        Counter budget_exhausted,
        /// Requests whose preparation reused a cached channel factorization.
        Counter prep_cache_hits,
        /// Requests whose preparation factored and cached their channel.
        Counter prep_cache_misses,
        /// Requests prepared outside the channel cache.
        Counter prep_cache_bypass,
        /// Channel preparations performed (none on a prep-cache hit).
        Counter prep_factors,
        /// Batches drained from the ingress queue.
        Counter batches,
        /// Queue items drained across all batches.
        Counter batch_items,
        /// Frame responses produced.
        Counter frames_served,
        /// Frames decoded by the cross-subcarrier fused block path.
        Counter frames_fused,
        /// Core-budget plan changes by the adaptive controller.
        Counter budget_replans,
        /// Subtree-decoder lane allowance planned by the controller (0 without one).
        Gauge core_budget,
    }
    summaries {
        /// End-to-end latency quantiles, one sample per served item (bucket upper bound).
        latency_ns as "latency_us" [p50_latency_us @ 0.5, p99_latency_us @ 0.99],
        /// Queue-wait quantiles (bucket upper bound).
        queue_wait_ns as "queue_wait_us" [p99_queue_wait_us @ 0.99],
    }
    derived {
        /// deadline_missed / served.
        Gauge deadline_miss_rate: f64 = ratio(deadline_missed, served),
        /// Mean requests per batch.
        Gauge mean_batch_size: f64 = ratio(batch_items, batches),
        /// Receive vectors served per channel preparation (served / prep_factors).
        Gauge prep_amortization: f64 = ratio(served, prep_factors),
        /// Ingress backlog at snapshot time.
        Gauge queue_depth: usize = depths.iter().sum(),
        /// Logical cores the host reported at startup.
        Gauge host_cores: usize = host,
        /// Number of runtime shards.
        Gauge n_shards: usize = shards.len(),
        /// Search-tree nodes generated across all served decodes.
        Counter nodes_generated: u64 = stats.nodes_generated,
        /// Search-tree leaves reached across all served decodes.
        Counter leaves_reached: u64 = stats.leaves_reached,
    }
}

impl Metrics {
    /// Zeroed metrics with one tier slot per registry label and one shard
    /// slot per runtime shard. `host_cores` is recorded verbatim for the
    /// exports.
    pub fn new(tier_labels: Vec<Arc<str>>, n_shards: usize, host_cores: usize) -> Self {
        Metrics::zeroed(
            host_cores,
            (0..n_shards).map(|_| ShardMetrics::zeroed()).collect(),
            tier_labels.into_iter().map(TierMetrics::zeroed).collect(),
            Mutex::new(DetectionStats::default()),
        )
    }

    /// Merge one batch's aggregated decoder stats.
    pub fn merge_stats(&self, batch: &DetectionStats) {
        self.stats
            .lock()
            .expect("a worker panicked while merging stats")
            .merge(batch);
    }

    /// Materialize a plain-data snapshot. `shard_depths` holds each shard
    /// queue's depth, sampled by the caller (the runtime knows the queues;
    /// the metrics do not) — the aggregate `queue_depth` is their sum, and
    /// an empty slice reads as all-empty (shutdown snapshots).
    pub fn snapshot(&self, shard_depths: &[usize]) -> MetricsSnapshot {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.load(shard_depths.get(i).copied().unwrap_or(0)))
            .collect();
        let tiers = self
            .tiers
            .iter()
            .map(|t| t.load(Arc::clone(&t.label)))
            .collect();
        let stats = self
            .stats
            .lock()
            .expect("a worker panicked while merging stats")
            .clone();
        self.load(shards, tiers, stats, self.host_cores, shard_depths)
    }
}

impl MetricsSnapshot {
    /// Serve count of the tier labelled `label` (0 if absent).
    pub fn tier_served(&self, label: &str) -> u64 {
        self.tiers
            .iter()
            .find(|t| &*t.label == label)
            .map_or(0, |t| t.served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(names: &[&str]) -> Vec<Arc<str>> {
        names.iter().map(|&n| Arc::from(n)).collect()
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Log2Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let c = h.counts();
        assert_eq!(c[0], 2);
        assert_eq!(c[1], 2);
        assert_eq!(c[10], 1);
        assert_eq!(Log2Histogram::total(&c), 5);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 6, upper edge 127
        }
        h.record(1 << 20); // one outlier
        let c = h.counts();
        assert_eq!(Log2Histogram::quantile(&c, 0.50), 127);
        assert_eq!(Log2Histogram::quantile(&c, 0.99), 127);
        assert_eq!(Log2Histogram::quantile(&c, 1.0), (1 << 21) - 1);
        assert_eq!(Log2Histogram::quantile(&[0; N_BUCKETS], 0.5), 0);
    }

    #[test]
    fn top_bucket_quantile_saturates() {
        // The top bucket's upper edge would overflow u64; the quantile
        // saturates to the bucket's lower edge instead of the old
        // `u64::MAX` sentinel (which rendered as ~1.8e16 µs).
        let h = Log2Histogram::new();
        h.record(u64::MAX);
        let c = h.counts();
        assert_eq!(c[N_BUCKETS - 1], 1);
        let top = Log2Histogram::quantile(&c, 1.0);
        assert_eq!(top, 1u64 << (N_BUCKETS - 1));
        assert!(top < u64::MAX);
        assert_eq!(Log2Histogram::quantile(&c, 0.5), top);
    }

    #[test]
    fn snapshot_records_shards_and_host() {
        let m = Metrics::new(labels(&["exact"]), 2, 8);
        m.shards[0].routed.store(5, Ordering::Relaxed);
        m.shards[0].served.store(4, Ordering::Relaxed);
        m.shards[0].affinity_served.store(3, Ordering::Relaxed);
        m.shards[0].stolen_out.store(1, Ordering::Relaxed);
        m.shards[1].stolen_in.store(1, Ordering::Relaxed);
        m.core_budget.store(6, Ordering::Relaxed);
        m.budget_replans.store(2, Ordering::Relaxed);
        let s = m.snapshot(&[3, 1]);
        assert_eq!(s.host_cores, 8);
        assert_eq!(s.n_shards, 2);
        assert_eq!(s.core_budget, 6);
        assert_eq!(s.budget_replans, 2);
        assert_eq!(s.queue_depth, 4, "aggregate depth sums the shards");
        assert_eq!(s.shards[0].queue_depth, 3);
        assert_eq!(s.shards[1].queue_depth, 1);
        assert_eq!(s.shards[0].routed, 5);
        assert_eq!(s.shards[0].affinity_served, 3);
        assert_eq!(s.shards[0].stolen_out, 1);
        assert_eq!(s.shards[1].stolen_in, 1);
        // A shutdown snapshot may pass an empty depth slice.
        let s = m.snapshot(&[]);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.shards[0].queue_depth, 0);
    }

    #[test]
    fn snapshot_computes_rates() {
        let m = Metrics::new(labels(&["exact", "mmse"]), 1, 1);
        m.served.store(8, Ordering::Relaxed);
        m.deadline_missed.store(2, Ordering::Relaxed);
        m.batches.store(4, Ordering::Relaxed);
        m.batch_items.store(8, Ordering::Relaxed);
        let batch = DetectionStats {
            nodes_generated: 40,
            ..Default::default()
        };
        m.merge_stats(&batch);
        m.merge_stats(&batch);
        let s = m.snapshot(&[3]);
        assert_eq!(s.queue_depth, 3);
        assert!((s.deadline_miss_rate - 0.25).abs() < 1e-12);
        assert!((s.mean_batch_size - 2.0).abs() < 1e-12);
        assert_eq!(s.stats.nodes_generated, 80);
    }

    /// Every served response is either exact or budget-truncated; the
    /// snapshot carries both counters so exports can close the invariant
    /// `quality_exact + budget_exhausted == served`.
    #[test]
    fn snapshot_carries_search_quality_counters() {
        let m = Metrics::new(labels(&["exact"]), 1, 1);
        m.served.store(10, Ordering::Relaxed);
        m.quality_exact.store(7, Ordering::Relaxed);
        m.budget_exhausted.store(3, Ordering::Relaxed);
        let s = m.snapshot(&[0]);
        assert_eq!(s.quality_exact, 7);
        assert_eq!(s.budget_exhausted, 3);
        assert_eq!(s.quality_exact + s.budget_exhausted, s.served);
    }

    #[test]
    fn snapshot_computes_prep_amortization_and_frame_ratio() {
        let m = Metrics::new(labels(&["exact"]), 1, 1);
        m.served.store(64, Ordering::Relaxed);
        m.prep_factors.store(4, Ordering::Relaxed);
        m.frames_served.store(4, Ordering::Relaxed);
        m.frames_fused.store(3, Ordering::Relaxed);
        let s = m.snapshot(&[0]);
        assert_eq!(s.prep_factors, 4);
        assert_eq!((s.frames_served, s.frames_fused), (4, 3));
        assert!((s.prep_amortization - 16.0).abs() < 1e-12);
        // Nothing factored yet: the ratio degrades to 0, not NaN.
        let empty = Metrics::new(labels(&["exact"]), 1, 1).snapshot(&[0]);
        assert_eq!(empty.prep_amortization, 0.0);
    }

    /// Each set's rows carry distinct keys, and every summary quantile
    /// row sits next to its siblings so one header introduces them.
    #[test]
    fn declared_rows_are_unique_and_grouped() {
        fn check<S>(rows: &[Row<S>]) {
            for (i, r) in rows.iter().enumerate() {
                assert!(
                    rows[..i].iter().all(|o| o.key != r.key),
                    "duplicate key {}",
                    r.key
                );
                let first = rows.iter().position(|o| o.family == r.family).unwrap();
                assert!(
                    rows[first..=i].iter().all(|o| o.family == r.family),
                    "family {} is split",
                    r.family
                );
            }
        }
        check(MetricsSnapshot::ROWS);
        check(ShardSnapshot::ROWS);
        check(TierSnapshot::ROWS);
    }

    #[test]
    fn tier_slots_track_serves_and_predict_error() {
        let m = Metrics::new(labels(&["exact", "k-best", "mmse"]), 1, 1);
        m.tiers[0].served.fetch_add(5, Ordering::Relaxed);
        m.tiers[0].predict_err_ns.record(100_000); // 100 µs off
        m.tiers[2].served.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot(&[0]);
        assert_eq!(s.tier_served("exact"), 5);
        assert_eq!(s.tier_served("k-best"), 0);
        assert_eq!(s.tier_served("mmse"), 1);
        assert_eq!(s.tier_served("nonexistent"), 0);
        assert!(s.tiers[0].p50_predict_err_us >= 100.0);
        assert_eq!(s.tiers[1].p50_predict_err_us, 0.0);
    }
}
