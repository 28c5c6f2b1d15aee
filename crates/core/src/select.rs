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
