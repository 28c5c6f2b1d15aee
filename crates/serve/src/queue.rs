//! Bounded MPMC queue with batched consumption and a pause gate.
//!
//! One `Mutex<VecDeque>` + `Condvar` — deliberately simple, allocation-free
//! once the deque has grown to capacity, and fair enough for a handful of
//! workers. Producers never block: [`BoundedQueue::try_push`] either
//! enqueues or hands the item straight back (explicit backpressure).
//! Consumers drain in batches via [`BoundedQueue::pop_batch`], which
//! implements the flush-on-size-or-age policy described in
//! [`crate::batcher`].
//!
//! A consumer waits in two steps. For the first `SPIN` (50 µs) of a wait
//! it yields its CPU to any thread that wants it, in a loop, and stays
//! runnable; only then does it block on the condition variable. The
//! scheduler wakes a blocked thread onto its waker's CPU when the thread's
//! own CPU is busy, and on a two-CPU host that kept a client and the worker
//! it fed on one CPU, taking turns while the other CPU idled, until the
//! load balancer parted them at a random moment: a closed loop read its
//! one-CPU rate, its two-CPU rate (about 1.4× higher) or a mix of the two
//! from one run to the next. A yielding consumer stays runnable, so the
//! balancer parts the two threads at once, and once each has a CPU of its
//! own the consumer takes the next item without being woken. A client that
//! shares the consumer's CPU gets it at each yield.
//!
//! The pause gate freezes consumers (producers still enqueue) so tests can
//! build a deterministic backlog; [`BoundedQueue::close`] clears the gate
//! and lets consumers drain everything before they observe shutdown —
//! drain-then-join, never drop.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a consumer yields its CPU before it blocks on a wait that has
/// not ended: about twice what a worker takes to serve a run of
/// `coherent16` vectors (traced `serve.service_us_p50`, 22 µs), so a busy
/// worker and its client see each other's next item without blocking,
/// while a consumer left idle blocks within a twentieth of a millisecond.
const SPIN: Duration = Duration::from_micros(50);

/// Why [`BoundedQueue::try_push`] refused an item.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity; the item is returned with the observed depth.
    Full(T, usize),
    /// Queue closed; the item is returned.
    Closed(T),
}

/// Outcome of a bounded-wait batch pop ([`BoundedQueue::pop_batch_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPop {
    /// At least one item was drained into `out`.
    Batch,
    /// The first-item wait elapsed with nothing available (the sharded
    /// worker's cue to go look at a steal victim).
    Empty,
    /// Closed and fully drained — the consumer's signal to exit.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// Bounded multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Queue holding at most `capacity` items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
                paused: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking enqueue: returns the item on a full or closed queue.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.capacity {
            let depth = g.items.len();
            return Err(PushError::Full(item, depth));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueue all of `items` (used for the unbounded response side, where
    /// every item corresponds to an admitted request, so depth is already
    /// bounded by admission control). One lock acquisition per batch.
    pub fn push_all(&self, items: &mut Vec<T>) {
        if items.is_empty() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        for item in items.drain(..) {
            g.items.push_back(item);
        }
        drop(g);
        self.not_empty.notify_all();
    }

    /// Pop a single item without blocking.
    pub fn try_pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        if g.paused {
            return None;
        }
        g.items.pop_front()
    }

    /// One round of a consumer's first [`SPIN`] of waiting: give the CPU to
    /// any thread that wants it, then take the lock back.
    fn yield_once<'a>(&'a self, g: MutexGuard<'a, Inner<T>>) -> MutexGuard<'a, Inner<T>> {
        drop(g);
        std::thread::yield_now();
        self.inner.lock().unwrap()
    }

    /// Pop a single item, waiting up to `timeout`. Returns `None` on
    /// timeout or when the queue is closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let start = Instant::now();
        let (deadline, spin_until) = (start + timeout, start + SPIN);
        let mut g = self.inner.lock().unwrap();
        loop {
            if !g.paused {
                if let Some(item) = g.items.pop_front() {
                    return Some(item);
                }
                if g.closed {
                    return None;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if now < spin_until {
                g = self.yield_once(g);
                continue;
            }
            let (g2, _timeout) = self.not_empty.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
    }

    /// Drain up to `max` items into `out`, blocking until at least one is
    /// available. After the first item, waits up to `max_wait` for the
    /// batch to fill (flush on size or age). Returns `false` only when the
    /// queue is closed **and** fully drained — the consumer's signal to
    /// exit.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize, max_wait: Duration) -> bool {
        match self.pop_batch_inner(out, max, max_wait, None) {
            BatchPop::Batch => true,
            BatchPop::Closed => false,
            BatchPop::Empty => unreachable!("unbounded first wait never returns Empty"),
        }
    }

    /// [`BoundedQueue::pop_batch`] with a bounded first-item wait: when
    /// nothing arrives within `first_wait`, returns [`BatchPop::Empty`]
    /// instead of blocking forever. This is the sharded worker loop's
    /// primitive — drain my shard or, after a short poll, go steal.
    pub fn pop_batch_timeout(
        &self,
        out: &mut Vec<T>,
        max: usize,
        max_wait: Duration,
        first_wait: Duration,
    ) -> BatchPop {
        self.pop_batch_inner(out, max, max_wait, Some(first_wait))
    }

    fn pop_batch_inner(
        &self,
        out: &mut Vec<T>,
        max: usize,
        max_wait: Duration,
        first_wait: Option<Duration>,
    ) -> BatchPop {
        debug_assert!(max >= 1);
        let start = Instant::now();
        let first_deadline = first_wait.map(|w| start + w);
        let spin_until = start + SPIN;
        let mut g = self.inner.lock().unwrap();
        // Phase 1: wait for the first item (respecting the pause gate) —
        // indefinitely, or up to `first_wait` when one was given.
        loop {
            if !g.paused {
                if !g.items.is_empty() {
                    break;
                }
                if g.closed {
                    return BatchPop::Closed;
                }
            }
            let now = Instant::now();
            let wait = match first_deadline {
                None => None,
                Some(deadline) if now >= deadline => return BatchPop::Empty,
                Some(deadline) => Some(deadline - now),
            };
            if now < spin_until {
                g = self.yield_once(g);
                continue;
            }
            g = match wait {
                None => self.not_empty.wait(g).unwrap(),
                Some(t) => self.not_empty.wait_timeout(g, t).unwrap().0,
            };
        }
        out.push(g.items.pop_front().unwrap());
        // Phase 2: age-bounded accumulation up to `max` (still respecting
        // the pause gate — a pause landing mid-batch must not keep feeding
        // this consumer).
        let first = Instant::now();
        let (deadline, spin_until) = (first + max_wait, first + SPIN);
        while out.len() < max {
            if !g.paused {
                if let Some(item) = g.items.pop_front() {
                    out.push(item);
                    continue;
                }
                if g.closed {
                    break;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if now < spin_until {
                g = self.yield_once(g);
                continue;
            }
            let (g2, _timeout) = self.not_empty.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
        BatchPop::Batch
    }

    /// Work stealing: move up to `max` items — but never more than half
    /// the backlog (rounded up) — from the front of this queue into `out`,
    /// without blocking. Items leave in FIFO order and whole (a frame is
    /// one item, so blocks are never split). Returns the number taken; a
    /// paused queue yields nothing, so deterministic-backlog tests see no
    /// back-door drain.
    pub fn steal_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut g = self.inner.lock().unwrap();
        if g.paused {
            return 0;
        }
        let take = max.min(g.items.len().div_ceil(2));
        for _ in 0..take {
            out.push(g.items.pop_front().unwrap());
        }
        take
    }

    /// Freeze consumers; producers continue to enqueue (up to capacity).
    pub fn pause(&self) {
        self.inner.lock().unwrap().paused = true;
    }

    /// Release the pause gate.
    pub fn resume(&self) {
        self.inner.lock().unwrap().paused = false;
        self.not_empty.notify_all();
    }

    /// Stop accepting new items. Consumers drain the backlog and then see
    /// end-of-stream; an active pause gate is cleared so shutdown always
    /// drains.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        g.paused = false;
        drop(g);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn full_queue_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(item, depth)) => {
                assert_eq!(item, 3);
                assert_eq!(depth, 2);
            }
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn closed_queue_returns_item_and_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch, 8, Duration::ZERO));
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert!(
            !q.pop_batch(&mut batch, 8, Duration::ZERO),
            "drained+closed"
        );
    }

    #[test]
    fn batch_flushes_on_size() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch, 4, Duration::from_secs(1)));
        assert_eq!(batch, vec![0, 1, 2, 3], "size bound flushes immediately");
    }

    #[test]
    fn batch_flushes_on_age() {
        let q = BoundedQueue::new(16);
        q.try_push(7).unwrap();
        let mut batch = Vec::new();
        let t0 = Instant::now();
        assert!(q.pop_batch(&mut batch, 4, Duration::from_millis(5)));
        assert_eq!(batch, vec![7], "partial batch after max_wait");
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn pause_gates_consumers_not_producers() {
        let q = BoundedQueue::new(8);
        q.pause();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_pop(), None, "paused consumer sees nothing");
        q.resume();
        assert_eq!(q.try_pop(), Some(1));
    }

    #[test]
    fn pause_gates_batch_accumulation() {
        // A pause landing between the first item and the rest of the batch
        // must stop the accumulation loop from draining further items.
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let mut batch = Vec::new();
            assert!(q2.pop_batch(&mut batch, 4, Duration::from_millis(200)));
            batch
        });
        // Let the consumer grab item 1 and enter phase 2, then gate it and
        // enqueue more work.
        std::thread::sleep(Duration::from_millis(50));
        q.pause();
        q.try_push(2).unwrap();
        q.try_push(3).unwrap();
        let batch = h.join().unwrap();
        assert_eq!(batch, vec![1], "paused accumulation must not drain");
        assert_eq!(q.len(), 2, "items pushed under pause stay queued");
    }

    #[test]
    fn close_clears_pause_for_drain() {
        let q = Arc::new(BoundedQueue::new(8));
        q.pause();
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let mut batch = Vec::new();
            let mut n = 0;
            while q2.pop_batch(&mut batch, 4, Duration::ZERO) {
                n += batch.len();
                batch.clear();
            }
            n
        });
        // Consumer is gated; closing must release it and drain the item.
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), 1);
    }

    #[test]
    fn bounded_first_wait_reports_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let mut batch = Vec::new();
        let t0 = Instant::now();
        assert_eq!(
            q.pop_batch_timeout(&mut batch, 4, Duration::ZERO, Duration::from_millis(5)),
            BatchPop::Empty
        );
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(batch.is_empty());
        q.try_push(9).unwrap();
        assert_eq!(
            q.pop_batch_timeout(&mut batch, 4, Duration::ZERO, Duration::from_millis(5)),
            BatchPop::Batch
        );
        assert_eq!(batch, vec![9]);
        batch.clear();
        q.close();
        assert_eq!(
            q.pop_batch_timeout(&mut batch, 4, Duration::ZERO, Duration::from_millis(5)),
            BatchPop::Closed
        );
    }

    #[test]
    fn steal_takes_at_most_half_the_backlog() {
        let q = BoundedQueue::new(16);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut loot = Vec::new();
        // ceil(5/2) = 3 available to a thief, FIFO from the front.
        assert_eq!(q.steal_into(&mut loot, 8), 3);
        assert_eq!(loot, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
        // A smaller ask is honored exactly.
        loot.clear();
        assert_eq!(q.steal_into(&mut loot, 1), 1);
        assert_eq!(loot, vec![3]);
    }

    #[test]
    fn steal_respects_pause_and_empty() {
        let q = BoundedQueue::new(8);
        let mut loot = Vec::new();
        assert_eq!(q.steal_into(&mut loot, 4), 0, "empty queue");
        q.try_push(1).unwrap();
        q.pause();
        assert_eq!(q.steal_into(&mut loot, 4), 0, "paused queue is gated");
        q.resume();
        assert_eq!(q.steal_into(&mut loot, 4), 1);
        assert_eq!(loot, vec![1]);
    }

    #[test]
    fn cross_thread_handoff() {
        let q = Arc::new(BoundedQueue::new(64));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut batch = Vec::new();
            while q2.pop_batch(&mut batch, 8, Duration::from_millis(1)) {
                got.append(&mut batch);
            }
            got
        });
        for i in 0..100 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err(PushError::Full(_, _)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
