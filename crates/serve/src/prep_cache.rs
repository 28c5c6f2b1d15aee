//! Channel-coherent prepared-state cache.
//!
//! In a coherence block the channel matrix `H` is estimated once and then
//! shared by every symbol vector until the next estimate — so consecutive
//! detection requests overwhelmingly repeat the same `H` with fresh `y`.
//! The QR factorization is the expensive, `y`-independent half of the
//! preprocessing ([`sd_core::prepare_channel_into`]); this cache keys that
//! half by `(tier, channel hash)` so a worker factors each channel once
//! per coherence block and replays `ȳ = Qᴴy` per request — the paper's
//! amortize-preprocessing-across-shared-`H` argument applied to serving.
//! A request is a block of one or more receive vectors sharing one `H`
//! (a vector is a block of one), so one lookup serves a whole frame.
//!
//! The cache is **per shard** (a short lock per lookup, never held for a
//! QR or a block apply, shared only by that shard's workers —
//! channel-affinity routing sends every repeat of an `H` to one shard, so
//! the coherent hits it exists for all land in one cache) and
//! **bounded**: eviction replaces the least-recently-used entry in place,
//! trading buffers with the worker that factored its successor, so a warm
//! cache serves hits *and* misses without heap allocation. The key's hash
//! is the routing hash admission already computed ([`route_hash`]);
//! lookups compare the full `H` bit pattern after it, so a hash collision
//! can never decode against the wrong channel, and a hit is bit-identical
//! to an uncached preparation by the factor/apply split contract of
//! [`sd_core::ChannelPrep`].

use sd_core::{
    prepare_block_with_channel_into, prepare_channel_into, BlockPrep, ChannelPrep, PrepScratch,
    Prepared, PreparedDetector,
};
use sd_math::Matrix;
use sd_wireless::FrameData;
use std::sync::Mutex;

/// One cached channel factorization.
struct Entry {
    tier: usize,
    hash: u64,
    /// Exact-bits copy of the keyed channel matrix (collision guard).
    h: Matrix<f64>,
    chan: ChannelPrep<f64>,
    /// Last-use stamp for LRU eviction.
    stamp: u64,
}

/// Per-shard bounded LRU cache of channel factorizations.
pub struct PrepCache {
    capacity: usize,
    entries: Vec<Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Channel hash: an FNV-1a-style xor-multiply over the bit patterns of
/// `H`, mixing one 64-bit word per step (a byte-at-a-time FNV costs 8
/// serial multiplies per element — more than the QR a hit saves at small
/// `M`). Admission computes it once per request: `route_hash(h) %
/// n_shards` sends *every* tier's requests for one channel — vectors and
/// frames alike — to one shard, and the same value keys that shard's
/// cache. Any decent 64-bit mix works here — the full `H` comparison
/// catches collisions.
pub fn route_hash(h: &Matrix<f64>) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut acc = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        acc ^= v;
        acc = acc.wrapping_mul(PRIME);
    };
    let (n, m) = h.shape();
    mix(n as u64);
    mix(m as u64);
    for c in h.as_slice() {
        mix(c.re.to_bits());
        mix(c.im.to_bits());
    }
    acc
}

fn same_h(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

impl PrepCache {
    /// Cache holding up to `capacity` channel factorizations
    /// (0 disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        PrepCache {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of cached factorizations.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of factorizations currently cached (≤ capacity, always).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses (entries factored) since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Slot of the tier's factorization of exactly `h`, if cached.
    fn find(&self, tier: usize, hash: u64, h: &Matrix<f64>) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.tier == tier && e.hash == hash && same_h(&e.h, h))
    }

    /// Publish the factorization `chan` of `h` for `tier`, evicting the
    /// least recently used entry in place when full. The entry's buffers
    /// are swapped with `chan` (whose contents the caller no longer
    /// needs), so a full cache publishes without allocating. If a racing
    /// worker published the same channel meanwhile, that entry stays.
    fn publish(&mut self, tier: usize, hash: u64, h: &Matrix<f64>, chan: &mut ChannelPrep<f64>) {
        self.clock += 1;
        if let Some(i) = self.find(tier, hash, h) {
            self.entries[i].stamp = self.clock;
            return;
        }
        let i = if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                tier,
                hash,
                h: Matrix::zeros(0, 0),
                chan: ChannelPrep::new(),
                stamp: 0,
            });
            self.entries.len() - 1
        } else {
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("a full cache has entries")
        };
        let e = &mut self.entries[i];
        e.tier = tier;
        e.hash = hash;
        e.stamp = self.clock;
        let (n, m) = h.shape();
        e.h.resize_for_overwrite(n, m);
        e.h.as_mut_slice().copy_from_slice(h.as_slice());
        std::mem::swap(&mut e.chan, chan);
    }

    /// Prepare the block `frames` (all sharing one `H`, whose
    /// [`route_hash`] is `hash`) for decoding at `tier` by `det`, through
    /// the shard cache `cache`: reuse the tier's factorization of this
    /// exact `H` when present, factor and publish it when not, then apply
    /// it to the whole block ([`prepare_block_with_channel_into`]).
    /// Returns `true` on a hit. `block` and `prep` come out bit-identical
    /// to an uncached block preparation either way.
    ///
    /// The lock is held for `O(n·m)` work per call, never for a QR or a
    /// `B`-column apply: a miss factors and applies outside it, in the
    /// caller's `chan`, and then trades `chan`'s buffers into the cache; a
    /// hit on a block copies the factorization into `chan` and applies it
    /// after unlocking; a hit on a single vector applies in place, which
    /// costs no more than that copy would.
    ///
    /// Panics if the cache was built with capacity 0 — callers gate on
    /// [`PrepCache::capacity`] and take the uncached path instead.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        cache: &Mutex<PrepCache>,
        tier: usize,
        hash: u64,
        det: &dyn PreparedDetector<f64>,
        frames: &[FrameData],
        scratch: &mut PrepScratch<f64>,
        chan: &mut ChannelPrep<f64>,
        block: &mut BlockPrep<f64>,
        prep: &mut Prepared<f64>,
    ) -> bool {
        let lock = || {
            cache
                .lock()
                .expect("a worker panicked while holding the prep cache")
        };
        let h = &frames[0].h;
        let constellation = det.constellation();
        let mut c = lock();
        assert!(c.capacity > 0, "capacity-0 cache cannot prepare");
        c.clock += 1;
        let Some(i) = c.find(tier, hash, h) else {
            c.misses += 1;
            drop(c);
            prepare_channel_into(&frames[0], det.ordering(), scratch, chan);
            prepare_block_with_channel_into(frames, constellation, chan, block, prep);
            lock().publish(tier, hash, h, chan);
            return false;
        };
        c.hits += 1;
        let stamp = c.clock;
        let e = &mut c.entries[i];
        e.stamp = stamp;
        if frames.len() == 1 {
            prepare_block_with_channel_into(frames, constellation, &mut e.chan, block, prep);
        } else {
            chan.clone_from(&e.chan);
            drop(c);
            prepare_block_with_channel_into(frames, constellation, chan, block, prep);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_core::{preprocess_ordered_into, ColumnOrdering, SphereDecoder};
    use sd_wireless::{Constellation, Modulation};

    fn setup(seed: u64) -> (Constellation, FrameData) {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = FrameData::generate(4, 4, &c, 0.1, &mut rng);
        (c, f)
    }

    /// A worker's scratch for driving the cache.
    struct Rig {
        det: SphereDecoder<f64>,
        scratch: PrepScratch<f64>,
        chan: ChannelPrep<f64>,
        block: BlockPrep<f64>,
        prep: Prepared<f64>,
    }

    impl Rig {
        fn new(c: &Constellation) -> Self {
            Rig {
                det: SphereDecoder::new(c.clone()),
                scratch: PrepScratch::new(),
                chan: ChannelPrep::new(),
                block: BlockPrep::new(),
                prep: Prepared::empty(),
            }
        }

        /// Prepare the block `frames`, keyed by the hash of `keyed`.
        fn block(
            &mut self,
            cache: &Mutex<PrepCache>,
            tier: usize,
            keyed: &FrameData,
            frames: &[FrameData],
        ) -> bool {
            PrepCache::prepare(
                cache,
                tier,
                route_hash(&keyed.h),
                &self.det,
                frames,
                &mut self.scratch,
                &mut self.chan,
                &mut self.block,
                &mut self.prep,
            )
        }

        fn go(&mut self, cache: &Mutex<PrepCache>, tier: usize, f: &FrameData) -> bool {
            self.block(cache, tier, f, std::slice::from_ref(f))
        }
    }

    /// `(hits, misses, len)` of a shard cache.
    fn counts(cache: &Mutex<PrepCache>) -> (u64, u64, usize) {
        let c = cache.lock().unwrap();
        (c.hits(), c.misses(), c.len())
    }

    #[test]
    fn cached_preparation_is_bit_identical_to_uncached() {
        let (c, f) = setup(1);
        let cache = Mutex::new(PrepCache::new(4));
        let mut d = Rig::new(&c);
        let mut fresh = Prepared::empty();
        let mut rng = StdRng::seed_from_u64(2);
        for round in 0..3 {
            // Same H, new y each round: miss then hits.
            let mut fy = f.clone();
            fy.y = FrameData::generate(4, 4, &c, 0.1, &mut rng).y;
            assert_eq!(d.go(&cache, 0, &fy), round > 0);
            let cached = &d.prep;
            preprocess_ordered_into(&fy, &c, ColumnOrdering::Natural, &mut d.scratch, &mut fresh);
            assert_eq!(fresh.r, cached.r);
            assert_eq!(fresh.ybar, cached.ybar);
            assert_eq!(fresh.tail_energy.to_bits(), cached.tail_energy.to_bits());
            assert_eq!(fresh.perm, cached.perm);
            assert_eq!(fresh.row_blocks, cached.row_blocks);
            assert_eq!(fresh.prep_flops, cached.prep_flops, "hits charge QR flops");
        }
        assert_eq!(counts(&cache), (2, 1, 1));
    }

    /// One lookup serves a whole block: a frame sharing a cached `H` is a
    /// single hit, and every subcarrier's problem matches an uncached
    /// preparation bit for bit.
    #[test]
    fn a_block_is_one_lookup() {
        let (c, f) = setup(11);
        let mut rng = StdRng::seed_from_u64(12);
        let frames: Vec<FrameData> = (0..6)
            .map(|_| {
                let mut fk = f.clone();
                fk.y = FrameData::generate(4, 4, &c, 0.1, &mut rng).y;
                fk
            })
            .collect();
        let cache = Mutex::new(PrepCache::new(2));
        let mut d = Rig::new(&c);
        assert!(!d.go(&cache, 0, &f), "the vector factors the channel");
        assert!(d.block(&cache, 0, &f, &frames));
        assert_eq!(counts(&cache), (1, 1, 1));
        let mut fresh = Prepared::empty();
        for (k, fk) in frames.iter().enumerate() {
            if k > 0 {
                d.block.fill_prepared(k, fk, &mut d.prep);
            }
            preprocess_ordered_into(fk, &c, ColumnOrdering::Natural, &mut d.scratch, &mut fresh);
            assert_eq!(fresh.r, d.prep.r, "sc {k}");
            assert_eq!(fresh.ybar, d.prep.ybar, "sc {k}");
            assert_eq!(fresh.tail_energy.to_bits(), d.prep.tail_energy.to_bits());
            assert_eq!(fresh.y, d.prep.y, "sc {k}");
        }
    }

    #[test]
    fn distinct_tiers_do_not_share_entries() {
        let (c, f) = setup(3);
        let cache = Mutex::new(PrepCache::new(4));
        let mut d = Rig::new(&c);
        assert!(!d.go(&cache, 0, &f));
        assert!(!d.go(&cache, 1, &f));
        assert!(d.go(&cache, 0, &f));
        assert_eq!(counts(&cache).2, 2);
    }

    #[test]
    fn eviction_is_bounded_and_lru() {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(4);
        let frames: Vec<FrameData> = (0..5)
            .map(|_| FrameData::generate(4, 4, &c, 0.1, &mut rng))
            .collect();
        let cache = Mutex::new(PrepCache::new(2));
        let mut d = Rig::new(&c);
        assert!(!d.go(&cache, 0, &frames[0])); // miss, cache {0}
        assert!(!d.go(&cache, 0, &frames[1])); // miss, cache {0,1}
        assert_eq!(counts(&cache).2, 2);
        assert!(d.go(&cache, 0, &frames[0])); // hit, 1 becomes LRU
        assert!(!d.go(&cache, 0, &frames[2])); // miss, evicts 1 -> {0,2}
        assert_eq!(counts(&cache).2, 2, "bounded at capacity");
        assert!(d.go(&cache, 0, &frames[0]), "0 survived eviction");
        assert!(!d.go(&cache, 0, &frames[1]), "1 was evicted");
    }

    #[test]
    fn random_channel_stream_stays_bounded() {
        let c = Constellation::new(Modulation::Qam4);
        let mut rng = StdRng::seed_from_u64(5);
        let cache = Mutex::new(PrepCache::new(3));
        let mut d = Rig::new(&c);
        for _ in 0..50 {
            let f = FrameData::generate(4, 4, &c, 0.1, &mut rng);
            d.go(&cache, 0, &f);
            assert!(counts(&cache).2 <= 3);
        }
        assert_eq!(counts(&cache), (0, 50, 3), "i.i.d. channels never repeat");
    }

    /// A hash collision must not hit: the full `H` compare guards it.
    #[test]
    fn colliding_hash_still_compares_the_channel() {
        let (c, f) = setup(6);
        let (_, g) = setup(7);
        let cache = Mutex::new(PrepCache::new(4));
        let mut d = Rig::new(&c);
        assert!(!d.go(&cache, 0, &f));
        let forged = d.block(&cache, 0, &f, std::slice::from_ref(&g));
        assert!(!forged, "same hash, different H: a miss");
    }

    /// Two workers that miss on one channel both factor it; the second
    /// publish finds the first and leaves one entry.
    #[test]
    fn racing_publish_keeps_one_entry() {
        let (c, f) = setup(13);
        let cache = Mutex::new(PrepCache::new(4));
        let mut d = Rig::new(&c);
        assert!(!d.go(&cache, 0, &f));
        let mut late = ChannelPrep::new();
        prepare_channel_into(&f, ColumnOrdering::Natural, &mut d.scratch, &mut late);
        cache
            .lock()
            .unwrap()
            .publish(0, route_hash(&f.h), &f.h, &mut late);
        assert_eq!(counts(&cache), (0, 1, 1));
        assert!(d.go(&cache, 0, &f));
    }

    #[test]
    fn route_hash_is_stable_and_channel_sensitive() {
        let (_, f) = setup(9);
        let (_, g) = setup(10);
        assert_eq!(route_hash(&f.h), route_hash(&f.h), "routing is stable");
        assert_ne!(route_hash(&f.h), route_hash(&g.h));
    }

    #[test]
    #[should_panic(expected = "capacity-0")]
    fn zero_capacity_prepare_panics() {
        let (c, f) = setup(8);
        let cache = Mutex::new(PrepCache::new(0));
        Rig::new(&c).go(&cache, 0, &f);
    }
}
