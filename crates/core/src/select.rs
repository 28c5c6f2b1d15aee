//! Deterministic partial selection for the breadth-first survivor cut.
//!
//! The level-synchronous engines (K-best, capped BFS, quantized K-best)
//! historically sorted the whole candidate list only to keep its first
//! `k` entries — PR 6's profile showed that full sort, not the GEMM,
//! dominating the float K-best end-to-end. The cut only needs a
//! selection: `select_nth_unstable_by(k−1)` partitions the list around
//! the k-th candidate in O(len), after which the `k` survivors are
//! sorted to restore the exact frontier order the full sort produced.
//!
//! Determinism: `select_nth_unstable_by` and `sort_unstable_by` are
//! deterministic functions of the input sequence and comparator (no
//! randomization in the stdlib implementations), so two runs over the
//! same candidate values make identical comparator decisions and keep a
//! positionally identical survivor prefix. That is the property the
//! fused block decoder leans on: a subcarrier's candidate segment holds
//! the same value sequence whether it was decoded alone or stacked into
//! a fused level, hence the cut keeps the same survivors. Under a *total*
//! order (the quantized engines compare `(metric, generation index)`
//! keys) the survivor set is the unique top-`k` and the order is the full
//! sort's order, so replacing sort+truncate with this cut is bit-identical
//! by construction; the float comparator orders by partial distance alone,
//! where survivor *sets* can differ from the old full sort only on exact
//! f64 metric ties (measure-zero for generic channels — see DESIGN.md).
//!
//! [`LaneCut`] cuts many lists at once under the quantized engines' total
//! order: a fused fixed-point K-best block sends every subcarrier's list
//! through one bitonic network, a lane per subcarrier, and keeps exactly
//! what [`keep_best_slice`] keeps (DESIGN.md, "The fixed-point K-best cut
//! in lanes").

use std::cmp::Ordering;

/// Keep the `k` best entries of `v` (by `cmp`, ascending) in sorted
/// order at the front; returns how many survive (`min(len, k)`).
/// Entries past the returned count are unspecified leftovers.
///
/// When `len ≤ k` the slice is left untouched — same contract as the
/// sort-only-when-over-capacity loops this replaces.
pub(crate) fn keep_best_slice<T>(
    v: &mut [T],
    k: usize,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) -> usize {
    if v.len() <= k {
        return v.len();
    }
    debug_assert!(k > 0, "cannot keep zero survivors");
    v.select_nth_unstable_by(k - 1, &mut cmp);
    v[..k].sort_unstable_by(&mut cmp);
    k
}

/// [`keep_best_slice`] for an owned candidate list: the survivors stay,
/// the rest is truncated away.
pub(crate) fn keep_best<T>(v: &mut Vec<T>, k: usize, cmp: impl FnMut(&T, &T) -> Ordering) {
    let kept = keep_best_slice(&mut v[..], k, cmp);
    v.truncate(kept);
}

/// A bitonic "`k` least of `n`, sorted" network as a list of
/// compare-exchanges `(lo, hi)`: each leaves the lesser key at entry `lo`
/// and the greater at `hi`. `n` and `k ≤ n` are powers of two. The `n`
/// entries are sorted in runs of `k`; then, pairwise up a tree, a run is
/// compared with its partner run reversed — which leaves the `k` least of
/// both, as a bitonic sequence, in the first — and re-sorted by a bitonic
/// merge. Entries `0..k` end up holding the `k` least keys, ascending.
#[derive(Debug)]
struct Network {
    n: usize,
    k: usize,
    ops: Vec<(u16, u16)>,
}

impl Network {
    fn new(n: usize, run: usize) -> Self {
        debug_assert!(n.is_power_of_two() && run.is_power_of_two() && run <= n);
        let mut ops = Vec::new();
        // Bitonic sort of each run, ascending.
        for base in (0..n).step_by(run) {
            let mut size = 2;
            while size <= run {
                let mut stride = size / 2;
                while stride > 0 {
                    for i in 0..run {
                        let j = i ^ stride;
                        if j > i {
                            let (lo, hi) = ((base + i) as u16, (base + j) as u16);
                            ops.push(if i & size == 0 { (lo, hi) } else { (hi, lo) });
                        }
                    }
                    stride /= 2;
                }
                size *= 2;
            }
        }
        // Tree of merges: run `a` keeps the `run` least of itself and run
        // `b`, then is re-sorted.
        let mut span = run;
        while span < n {
            for a in (0..n).step_by(2 * span) {
                let b = a + span;
                for i in 0..run {
                    ops.push(((a + i) as u16, (b + run - 1 - i) as u16));
                }
                let mut stride = run / 2;
                while stride > 0 {
                    for i in 0..run {
                        if i & stride == 0 {
                            ops.push(((a + i) as u16, (a + i + stride) as u16));
                        }
                    }
                    stride /= 2;
                }
            }
            span *= 2;
        }
        Network { n, k: run, ops }
    }
}

/// The survivor cut of many candidate lists at once, one per lane: the
/// fused fixed-point K-best cuts every subcarrier of a block through one
/// bitonic [`Network`] whose compare-exchanges each sweep all lanes.
///
/// Keys sit entry-major — entry `e` of every lane side by side — as a
/// `u64` metric and a `u32` candidate index, compared lexicographically.
/// For non-negative metrics that is exactly the `(i64, u32)` order
/// [`keep_best_slice`] cuts under, and indices are distinct within a
/// lane, so the order is total and the survivors — the unique `k` least,
/// ascending — are the ones the library cut keeps. Lists are padded to a
/// power of two with `(u64::MAX, u32::MAX)`, which sorts after every real
/// key; a `k` that is not a power of two runs the next power's network.
///
/// The control flow depends on the shape alone, never on the keys. Each
/// compare-exchange is a loop over the lane slices with branch-free
/// selects, so in release it vectorizes across lanes; one lane alone
/// runs it several times slower than [`keep_best_slice`].
#[derive(Debug, Default)]
pub(crate) struct LaneCut {
    /// Networks by `(n, k)`, built on first use.
    nets: Vec<Network>,
    /// Lanes of the last cut.
    lanes: usize,
    metric: Vec<u64>,
    id: Vec<u32>,
}

impl LaneCut {
    /// Cut `lanes` lists of `len` candidates each to their `k` least
    /// `(metric, index)` keys, where `metric(lane, i)` is the non-negative
    /// metric of candidate `i` of `lane`. Read the survivors back with
    /// [`Self::survivor`].
    pub(crate) fn cut(
        &mut self,
        lanes: usize,
        len: usize,
        k: usize,
        mut metric: impl FnMut(usize, usize) -> i64,
    ) {
        debug_assert!(k > 0 && lanes > 0 && len > 0);
        let n = len.next_power_of_two();
        let k = k.next_power_of_two().min(n);
        let net = match self.nets.iter().position(|net| net.n == n && net.k == k) {
            Some(i) => i,
            None => {
                assert!(n <= 1 << 16, "lane cut of {len} candidates");
                self.nets.push(Network::new(n, k));
                self.nets.len() - 1
            }
        };
        self.lanes = lanes;
        if self.metric.len() < n * lanes {
            self.metric.resize(n * lanes, 0);
            self.id.resize(n * lanes, 0);
        }
        let entries = self.metric[..n * lanes].chunks_exact_mut(lanes);
        for (i, (km, ki)) in entries.zip(self.id.chunks_exact_mut(lanes)).enumerate() {
            if i < len {
                for (lane, m) in km.iter_mut().enumerate() {
                    let v = metric(lane, i);
                    debug_assert!(v >= 0, "negative path metric {v}");
                    *m = v as u64;
                }
                ki.fill(i as u32);
            } else {
                km.fill(u64::MAX);
                ki.fill(u32::MAX);
            }
        }
        for &(lo, hi) in &self.nets[net].ops {
            let (lo_m, hi_m) = entry_pair(&mut self.metric, lo as usize, hi as usize, lanes);
            let (lo_i, hi_i) = entry_pair(&mut self.id, lo as usize, hi as usize, lanes);
            compare_exchange(lo_m, hi_m, lo_i, hi_i);
        }
    }

    /// Survivor `slot` (ascending) of `lane` after [`Self::cut`]: its
    /// metric and candidate index.
    #[inline]
    pub(crate) fn survivor(&self, lane: usize, slot: usize) -> (i64, u32) {
        let at = slot * self.lanes + lane;
        (self.metric[at] as i64, self.id[at])
    }
}

/// Entries `a` and `b` (distinct) of an entry-major lane buffer.
#[inline(always)]
fn entry_pair<T>(v: &mut [T], a: usize, b: usize, lanes: usize) -> (&mut [T], &mut [T]) {
    if a < b {
        let (x, y) = v.split_at_mut(b * lanes);
        (&mut x[a * lanes..(a + 1) * lanes], &mut y[..lanes])
    } else {
        let (x, y) = v.split_at_mut(a * lanes);
        (&mut y[..lanes], &mut x[b * lanes..(b + 1) * lanes])
    }
}

/// One compare-exchange across all lanes: the lesser `(metric, id)` key
/// to the `lo` side. Non-short-circuit `|`/`&` and `if` selects keep the
/// body branch-free, so it vectorizes.
#[inline(always)]
fn compare_exchange(lo_m: &mut [u64], hi_m: &mut [u64], lo_i: &mut [u32], hi_i: &mut [u32]) {
    let lanes = lo_m.len();
    let (hi_m, lo_i, hi_i) = (&mut hi_m[..lanes], &mut lo_i[..lanes], &mut hi_i[..lanes]);
    for l in 0..lanes {
        let (a, b, i, j) = (lo_m[l], hi_m[l], lo_i[l], hi_i[l]);
        let swap = (b < a) | ((b == a) & (j < i));
        lo_m[l] = if swap { b } else { a };
        hi_m[l] = if swap { a } else { b };
        lo_i[l] = if swap { j } else { i };
        hi_i[l] = if swap { i } else { j };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_full_sort_under_a_total_order() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..200 {
            let len = 1 + trial % 97;
            let k = 1 + trial % 23;
            let v: Vec<(i64, u32)> = (0..len)
                .map(|i| (rng.gen_range(-50i64..50), i as u32))
                .collect();
            // Reference: the sort+truncate the engines used to run —
            // which, like the cut, only fires when over capacity.
            let mut full = v.clone();
            if full.len() > k {
                full.sort_unstable();
                full.truncate(k);
            }
            let mut cut = v.clone();
            keep_best(&mut cut, k, |a, b| a.cmp(b));
            assert_eq!(cut, full, "trial {trial} len {len} k {k}");
        }
    }

    #[test]
    fn slice_and_vec_forms_agree_positionally() {
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..100 {
            let len = 1 + trial % 64;
            let k = 1 + trial % 17;
            // Duplicate-heavy floats: ties must resolve identically in
            // both forms because they run the same algorithm over the
            // same sequence.
            let v: Vec<(f64, u32)> = (0..len)
                .map(|i| (rng.gen_range(0..8) as f64, i as u32))
                .collect();
            let mut as_vec = v.clone();
            keep_best(&mut as_vec, k, |a, b| a.0.total_cmp(&b.0));
            let mut as_slice = v.clone();
            let kept = keep_best_slice(&mut as_slice, k, |a, b| a.0.total_cmp(&b.0));
            assert_eq!(as_vec.len(), kept);
            assert_eq!(&as_slice[..kept], &as_vec[..], "trial {trial}");
        }
    }

    /// The lane network keeps exactly what sort-then-truncate over
    /// `(metric, index)` keeps, in the same order: every power-of-two
    /// network size `n` ≤ 64, every `k` ≤ `n`, lists of `n` entries and
    /// lists padded up to `n`, 1, 3, 8 and 64 lanes, on random keys,
    /// tie-heavy keys and keys saturated at `i64::MAX`.
    #[test]
    fn lane_network_is_sort_then_truncate() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cut = LaneCut::default();
        for n in (0..=6).map(|e| 1usize << e) {
            let mut lens = vec![n, n / 2 + 1];
            lens.dedup();
            for len in lens {
                for k in 1..=n {
                    for lanes in [1, 3, 8, 64] {
                        for keys in 0..3 {
                            let lists: Vec<Vec<i64>> = (0..lanes)
                                .map(|_| {
                                    (0..len)
                                        .map(|_| match keys {
                                            0 => rng.gen_range(0..1_000_000i64),
                                            1 => rng.gen_range(0..3i64),
                                            _ if rng.gen_bool(0.5) => i64::MAX,
                                            _ => rng.gen_range(0..4i64),
                                        })
                                        .collect()
                                })
                                .collect();
                            cut.cut(lanes, len, k, |lane, i| lists[lane][i]);
                            for (lane, list) in lists.iter().enumerate() {
                                let mut want: Vec<(i64, u32)> =
                                    list.iter().zip(0..).map(|(&v, i)| (v, i)).collect();
                                want.sort_unstable();
                                want.truncate(k);
                                let got: Vec<(i64, u32)> =
                                    (0..want.len()).map(|s| cut.survivor(lane, s)).collect();
                                assert_eq!(
                                    got, want,
                                    "n {n} len {len} k {k} lanes {lanes} keys {keys} lane {lane}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn network_sizes_are_the_bitonic_counts() {
        // k of n as sorted runs plus a merge tree: 16 of 64 is four sorted
        // runs of 16 (80 each) and three merges (16 + 32 each); a full
        // sort of 64 is 32 · 6 · 7 / 2.
        assert_eq!(Network::new(64, 16).ops.len(), 4 * 80 + 3 * 48);
        assert_eq!(Network::new(64, 64).ops.len(), 672);
        assert_eq!(Network::new(256, 16).ops.len(), 16 * 80 + 15 * 48);
    }

    #[test]
    fn under_capacity_is_untouched() {
        let mut v = vec![5, 1, 4];
        keep_best(&mut v, 3, |a, b| a.cmp(b));
        assert_eq!(v, vec![5, 1, 4], "no sort below the cap");
        let mut s = [9, 2];
        assert_eq!(keep_best_slice(&mut s, 7, |a, b| a.cmp(b)), 2);
        assert_eq!(s, [9, 2]);
    }
}
