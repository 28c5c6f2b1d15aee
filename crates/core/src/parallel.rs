//! Subtree-parallel exact sphere decoding with a shared pruning radius.
//!
//! The conclusion of the paper proposes "partitioning the search tree
//! over multiple Processing Entities (PEs)"; fixed-complexity
//! decompositions (Barbero & Thompson's FSD) show the top levels of the
//! tree partition cleanly into independent subtrees. This module is that
//! design in software, generalized from the level-1 split of the earlier
//! `multi_pe` prototype:
//!
//! 1. **Subtree enumeration** — the top `L` levels are walked on the
//!    calling thread in Schnorr–Euchner (sorted-children) order, pruning
//!    against the initial radius, producing every surviving depth-`L`
//!    prefix as a *subtree root*.
//! 2. **Fan-out** — the roots, sorted by partial distance so the most
//!    promising subtrees are entered first, are dealt round-robin to the
//!    workers of a persistent [`rayon::ThreadPool`]. Each worker runs the
//!    same sorted depth-first descent as the sequential
//!    [`SphereDecoder`](crate::dfs::SphereDecoder) inside its subtrees.
//! 3. **Shared radius** — workers prune through one
//!    [`AtomicF64Min`]: a lock-free fetch-min over the IEEE-754 bits of
//!    the squared radius. Any worker's leaf immediately tightens every
//!    other worker's sphere, the synchronization Nikitopoulos et al. \[4\]
//!    identify as essential. Sharing only ever *shrinks* the sphere
//!    toward valid leaf metrics, so the combined search remains exactly
//!    ML: a stale (larger) radius read merely delays a prune, never
//!    causes a wrong one.
//!
//! Per-worker [`SearchWorkspace`]s and the subtree-root buffers persist
//! inside the decoder, so the steady-state decode path performs no heap
//! allocation and no thread spawn (`tests/alloc_free.rs`). With one
//! worker the decoder takes the sequential code path outright and is
//! bit-identical — stats included — to [`SphereDecoder`](crate::dfs::SphereDecoder).
//!
//! Determinism: the returned *metric* is the exact ML minimum and is
//! bit-identical to the sequential decoder's (both accumulate the same
//! `pd + increment` chain along the winning path). Node/prune *counts*
//! depend on radius-update timing and may vary run to run.

use crate::arena::SearchWorkspace;
use crate::detector::{Detection, DetectionStats, SearchQuality};
use crate::dfs::{Dfs, DfsSink, DfsTable, DfsWalk, DynSink, NoSink};
use crate::engine::{impl_detector_via_prepared, DecodeBudget, PreparedDetector};
use crate::pd::{greedy_tail, EvalStrategy};
use crate::preprocess::{ColumnOrdering, Prepared};
use crate::radius::InitialRadius;
use crate::trace::{span_clock, span_ns, Phase, SearchTelemetry, TraceSink};
use sd_math::{AtomicF64Min, Float};
use sd_wireless::Constellation;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The decode-wide spend ledger of a budgeted parallel decode: one atomic
/// node counter shared by the enumeration pass and every broadcast lane,
/// plus a latch that stops all lanes once the budget expires. Allocated
/// on the decode's stack only when the budget is limited, so the
/// unbudgeted hot path carries no shared-counter traffic at all.
struct SharedBudget {
    max_nodes: u64,
    deadline: Option<Instant>,
    spent: AtomicU64,
    tripped: AtomicBool,
}

impl SharedBudget {
    fn new(budget: &DecodeBudget) -> Self {
        SharedBudget {
            max_nodes: budget.max_nodes,
            deadline: budget.deadline,
            spent: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Called at the top of every expansion: reports whether the budget
    /// has already expired (latching the trip so every lane sees it),
    /// and if not, charges the `n` children about to be generated.
    /// Like the sequential decoder's check, this only ever *stops* the
    /// search — pruning and ordering are untouched — so an untripped
    /// budgeted decode explores exactly the tree the unbudgeted one does.
    #[inline]
    fn check_and_charge(&self, n: u64) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        let spent = self.spent.load(Ordering::Relaxed);
        let expired = spent >= self.max_nodes || self.deadline.is_some_and(|d| Instant::now() >= d);
        if expired {
            self.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        self.spent.fetch_add(n, Ordering::Relaxed);
        false
    }

    fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// Shared, dynamically adjustable worker allowance for
/// [`ParallelSphereDecoder`].
///
/// A controller (e.g. the serve runtime's adaptive core budget) writes
/// the number of broadcast lanes the next decode may occupy; the decoder
/// samples it once at the top of every decode and runs on
/// `min(configured workers, budget)` lanes. The pool itself is built once
/// at the configured width — shrinking the budget idles lanes (they
/// return from the broadcast immediately), it never tears threads down,
/// so re-planning is free on the decode path.
///
/// Correctness is budget-independent: the returned solution metric is the
/// exact ML minimum for every lane count, and a budget of 1 takes the
/// sequential code path outright (bit-identical stats included).
#[derive(Debug)]
pub struct WorkerBudget(AtomicUsize);

impl WorkerBudget {
    /// A budget of `workers` lanes (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerBudget(AtomicUsize::new(workers.max(1)))
    }

    /// Re-plan the allowance (clamped to at least 1). Decodes already in
    /// flight finish at their sampled width; the next decode sees this.
    pub fn set(&self, workers: usize) {
        self.0.store(workers.max(1), Ordering::Relaxed);
    }

    /// Current allowance.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed).max(1)
    }
}

/// Subtree-parallel exact sphere decoder (see the module docs).
///
/// The established [`SubtreeParallelSd`] name is kept as an alias; all
/// prior call sites (`SubtreeParallelSd::new(c)`) behave as before but
/// now fan over a persistent pool with a configurable split depth.
pub struct ParallelSphereDecoder<F: Float = f64> {
    /// Sequential twin: holds the shared configuration (constellation,
    /// eval, radius policy, ordering) and serves the 1-worker path.
    seq: crate::dfs::SphereDecoder<F>,
    workers: usize,
    split_levels: Option<usize>,
    /// Optional shared lane allowance; `None` always runs all `workers`.
    budget: Option<Arc<WorkerBudget>>,
    runtime: Mutex<ParRuntime<F>>,
}

/// The established name of the subtree-parallel decoder.
pub type SubtreeParallelSd<F = f64> = ParallelSphereDecoder<F>;

impl<F: Float> std::fmt::Debug for ParallelSphereDecoder<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSphereDecoder")
            .field("workers", &self.workers)
            .field("split_levels", &self.split_levels)
            .field("budget", &self.budget)
            .field("seq", &self.seq)
            .finish()
    }
}

impl<F: Float> Clone for ParallelSphereDecoder<F> {
    fn clone(&self) -> Self {
        ParallelSphereDecoder {
            seq: self.seq.clone(),
            workers: self.workers,
            split_levels: self.split_levels,
            // The budget handle is shared, not duplicated: clones of one
            // decoder answer to the same controller.
            budget: self.budget.clone(),
            runtime: Mutex::new(ParRuntime::new()),
        }
    }
}

impl<F: Float> ParallelSphereDecoder<F> {
    /// Parallel decoder with the paper's defaults (GEMM evaluation,
    /// infinite initial radius) and one worker per logical CPU.
    pub fn new(constellation: Constellation) -> Self {
        ParallelSphereDecoder {
            seq: crate::dfs::SphereDecoder::new(constellation),
            workers: rayon::max_threads(),
            split_levels: None,
            budget: None,
            runtime: Mutex::new(ParRuntime::new()),
        }
    }

    /// Builder: number of parallel workers (`1` = fully sequential, no
    /// pool is ever spawned).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: attach a shared [`WorkerBudget`]. Every decode samples the
    /// budget once and runs on `min(workers, budget)` broadcast lanes; the
    /// pool keeps its configured width, so a controller can re-plan the
    /// allowance between decodes with no thread churn.
    pub fn with_worker_budget(mut self, budget: Arc<WorkerBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Builder: split depth `L` — the number of top tree levels
    /// enumerated into subtree roots. Clamped to `[1, n_tx − 1]` at
    /// decode time, so an `L ≥ n_tx` request degrades gracefully.
    /// Default: the smallest `L` with `P^L ≥ 2 · workers`.
    pub fn with_split_levels(mut self, levels: usize) -> Self {
        self.split_levels = Some(levels);
        self
    }

    /// Builder: evaluation strategy.
    pub fn with_eval(mut self, eval: EvalStrategy) -> Self {
        self.seq = self.seq.with_eval(eval);
        self
    }

    /// Builder: initial radius policy.
    pub fn with_initial_radius(mut self, r: InitialRadius) -> Self {
        self.seq = self.seq.with_initial_radius(r);
        self
    }

    /// Builder: detection-order preprocessing.
    pub fn with_ordering(mut self, ordering: ColumnOrdering) -> Self {
        self.seq = self.seq.with_ordering(ordering);
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Effective split depth for a tree of `n_tx` levels with branching
    /// factor `order`.
    pub fn effective_split_levels(&self, n_tx: usize, order: usize) -> usize {
        let cap = n_tx.saturating_sub(1).max(1);
        let l = self.split_levels.unwrap_or_else(|| {
            // Smallest L with order^L >= 2·workers: enough subtrees that
            // the round-robin deal keeps every worker busy.
            let target = (2 * self.workers) as u64;
            let mut l = 1usize;
            let mut count = order.max(2) as u64;
            while count < target && l < cap {
                l += 1;
                count = count.saturating_mul(order.max(2) as u64);
            }
            l
        });
        l.clamp(1, cap)
    }
}

/// One surviving depth-`L` prefix: its partial distance and the offset of
/// its path in the flattened path buffer.
#[derive(Clone, Copy)]
struct RootRef<F> {
    pd: F,
    off: u32,
}

/// Per-worker persistent state: a full search workspace plus the stats /
/// telemetry / incumbent the worker accumulates during a decode.
struct WorkerSlot<F: Float> {
    ws: SearchWorkspace<F>,
    stats: DetectionStats,
    telemetry: SearchTelemetry,
    best_pd: Option<f64>,
    best_path: Vec<usize>,
}

impl<F: Float> WorkerSlot<F> {
    fn new() -> Self {
        WorkerSlot {
            ws: SearchWorkspace::new(),
            stats: DetectionStats::default(),
            telemetry: SearchTelemetry::new(),
            best_pd: None,
            best_path: Vec::new(),
        }
    }
}

/// Lazily initialized parallel-decode machinery, behind the decoder's
/// decode gate (one decode at a time per decoder instance; the serve
/// registry shares detector objects across serve workers).
struct ParRuntime<F: Float> {
    pool: Option<rayon::ThreadPool>,
    slots: Vec<Mutex<WorkerSlot<F>>>,
    roots: Vec<RootRef<F>>,
    root_paths: Vec<usize>,
    shared: AtomicF64Min,
}

impl<F: Float> ParRuntime<F> {
    fn new() -> Self {
        ParRuntime {
            pool: None,
            slots: Vec::new(),
            roots: Vec::new(),
            root_paths: Vec::new(),
            shared: AtomicF64Min::new(),
        }
    }

    fn ensure_pool(&mut self, workers: usize) {
        if self.pool.is_none() {
            self.pool = Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .expect("spawn decode pool"),
            );
            self.slots = (0..workers)
                .map(|_| Mutex::new(WorkerSlot::new()))
                .collect();
        }
    }
}

impl<F: Float> PreparedDetector<F> for ParallelSphereDecoder<F> {
    fn constellation(&self) -> &Constellation {
        self.seq.constellation()
    }

    fn ordering(&self) -> ColumnOrdering {
        self.seq.ordering
    }

    fn initial_radius_sqr(&self, n_rx: usize, noise_variance: f64) -> f64 {
        self.seq.initial_radius.resolve(n_rx, noise_variance)
    }

    fn channel_cacheable(&self) -> bool {
        true
    }

    /// Decode a prepared problem over the worker pool. With one worker
    /// (or a degenerate single-level tree) this is exactly the
    /// sequential [`SphereDecoder`](crate::dfs::SphereDecoder) decode —
    /// no pool is consulted and the stats are bit-identical.
    fn detect_prepared_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, &DecodeBudget::UNLIMITED, ws, out);
    }

    fn detect_prepared_budgeted_into(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        self.decode_budgeted(prep, radius_sqr, budget, ws, out);
    }
}

impl<F: Float> ParallelSphereDecoder<F> {
    /// The shared decode body; the unbudgeted entry point passes
    /// [`DecodeBudget::UNLIMITED`], which allocates no spend ledger and
    /// can never trip.
    fn decode_budgeted(
        &self,
        prep: &Prepared<F>,
        radius_sqr: f64,
        decode_budget: &DecodeBudget,
        ws: &mut SearchWorkspace<F>,
        out: &mut Detection,
    ) {
        let m = prep.n_tx;
        let p = prep.order;
        // Sample the lane allowance once per decode: the controller may
        // re-plan concurrently, but this decode runs at a fixed width.
        let active = match &self.budget {
            Some(b) => self.workers.min(b.get()),
            None => self.workers,
        };
        if active <= 1 || m < 2 {
            return self.seq.detect_prepared_budgeted_into(
                prep,
                radius_sqr,
                decode_budget,
                ws,
                out,
            );
        }
        // The spend ledger lives on this decode's stack; `None` (the
        // unlimited case) keeps the hot path free of atomic traffic.
        let shared_budget = if decode_budget.is_unlimited() {
            None
        } else {
            Some(SharedBudget::new(decode_budget))
        };
        let shared_budget = shared_budget.as_ref();
        let split = self.effective_split_levels(m, p);

        let mut rt = self.runtime.lock().unwrap();
        let rt = &mut *rt;
        rt.ensure_pool(self.workers);

        ws.prepare(p, m);
        out.stats.reset(m);
        let mut trace = ws.trace.take();
        if let Some(t) = trace.as_deref_mut() {
            t.on_decode_start(m);
        }
        let tracing = trace.is_some();
        for slot in &rt.slots {
            let mut slot = slot.lock().unwrap();
            slot.stats.reset(m);
            slot.best_pd = None;
            slot.best_path.clear();
            // Sized here, on the caller, so that a lane landing its first
            // leaf never grows it: which lanes land leaves varies run to
            // run, and a warm pool must not allocate.
            slot.best_path.reserve(m);
            if tracing {
                slot.telemetry.on_decode_start(m);
            }
        }

        let eval = self.seq.eval;
        let mut r2 = radius_sqr;
        let mut leafless = false;
        loop {
            rt.roots.clear();
            rt.root_paths.clear();
            let mut splitter = Splitter {
                radius: F::from_f64(r2),
                roots: &mut rt.roots,
                root_paths: &mut rt.root_paths,
                budget: shared_budget,
            };
            // A tripped budget is read back from the shared ledger below.
            let (table, stats) = (&mut ws.dfs, &mut out.stats);
            match trace.as_deref_mut() {
                Some(t) => sorted_dfs(prep, eval, split, table, stats, DynSink(t)).walk(
                    &[],
                    F::ZERO,
                    &mut splitter,
                ),
                None => sorted_dfs(prep, eval, split, table, stats, NoSink).walk(
                    &[],
                    F::ZERO,
                    &mut splitter,
                ),
            };

            if !rt.roots.is_empty() {
                // Most promising subtrees first: the earlier a tight leaf
                // lands, the harder everyone prunes. Ties (measure-zero
                // for random channels) break on enumeration order, so the
                // deal is deterministic.
                rt.roots
                    .sort_unstable_by(|a, b| match a.pd.partial_cmp(&b.pd) {
                        Some(core::cmp::Ordering::Equal) | None => a.off.cmp(&b.off),
                        Some(o) => o,
                    });
                rt.shared.store(r2);

                let slots = &rt.slots;
                let roots = &rt.roots[..];
                let root_paths = &rt.root_paths[..];
                let shared = &rt.shared;
                rt.pool.as_ref().unwrap().broadcast(|ctx| {
                    // Lanes beyond the sampled budget idle out immediately;
                    // the round-robin deal below covers every root with
                    // `active` workers, so correctness is width-independent.
                    if ctx.index() >= active {
                        return;
                    }
                    let mut slot = slots[ctx.index()].lock().unwrap();
                    let slot = &mut *slot;
                    slot.ws.prepare(p, m);
                    let mut worker = Worker {
                        shared,
                        best_pd: &mut slot.best_pd,
                        best_path: &mut slot.best_path,
                        budget: shared_budget,
                        roots,
                        root_paths,
                        split,
                    };
                    let (table, stats, lane) = (&mut slot.ws.dfs, &mut slot.stats, ctx.index());
                    if tracing {
                        let sink = DynSink(&mut slot.telemetry);
                        worker.search(sorted_dfs(prep, eval, m, table, stats, sink), lane, active);
                    } else {
                        worker.search(
                            sorted_dfs(prep, eval, m, table, stats, NoSink),
                            lane,
                            active,
                        );
                    }
                });

                let found = rt.slots.iter().any(|s| s.lock().unwrap().best_pd.is_some());
                if found {
                    break;
                }
            }

            // A tripped budget ends the decode — never restart into spend
            // that is already gone; the merge below completes a leaf
            // greedily if no lane landed one.
            if shared_budget.is_some_and(|b| b.is_tripped()) {
                break;
            }

            // Empty sphere: enlarge and retry (keeps the decoder exact
            // for finite initial radii), mirroring the sequential loop. A
            // radius that restarting cannot grow ends the decode; the
            // merge below completes a leaf greedily.
            if !InitialRadius::can_restart(r2, out.stats.restarts) {
                leafless = true;
                break;
            }
            r2 *= InitialRadius::RESTART_GROWTH;
            out.stats.restarts += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.on_restart();
            }
        }

        // Merge worker stats and pick the incumbent: the shared radius
        // admits one winner per value, so the global best lives in
        // exactly one slot.
        let mut best: Option<(f64, usize)> = None;
        for (i, slot) in rt.slots.iter().enumerate() {
            let slot = slot.lock().unwrap();
            out.stats.merge(&slot.stats);
            if let Some(pd) = slot.best_pd {
                if best.is_none_or(|(b, _)| pd < b) {
                    best = Some((pd, i));
                }
            }
        }
        let tripped = shared_budget.is_some_and(|b| b.is_tripped());
        let spent = out.stats.nodes_generated;
        let best_pd = match best {
            Some((best_pd, winner)) => {
                if let Some(t) = trace.as_deref_mut() {
                    for slot in &rt.slots {
                        let slot = slot.lock().unwrap();
                        replay_telemetry(t, &slot.telemetry, best_pd);
                    }
                }
                let slot = rt.slots[winner].lock().unwrap();
                prep.indices_from_path_into(&slot.best_path, &mut out.indices);
                best_pd
            }
            None => {
                // Only reachable on a tripped budget or an empty sphere
                // that restarting cannot fill: no lane landed a leaf, so
                // complete one greedily on the calling thread.
                debug_assert!(tripped || leafless, "leafless exit without a cause");
                ws.best_path.clear();
                let pd = greedy_tail(
                    prep,
                    eval,
                    &mut ws.best_path,
                    F::ZERO,
                    &mut out.stats,
                    &mut ws.scratch,
                )
                .to_f64();
                out.stats.leaves_reached += 1;
                out.stats.radius_updates += 1;
                if let Some(t) = trace.as_deref_mut() {
                    for slot in &rt.slots {
                        let slot = slot.lock().unwrap();
                        replay_telemetry(t, &slot.telemetry, pd);
                    }
                }
                prep.indices_from_path_into(&ws.best_path, &mut out.indices);
                pd
            }
        };
        if tripped || leafless {
            out.stats.quality = SearchQuality::BudgetTruncated { nodes_spent: spent };
        }
        out.stats.final_radius_sqr = best_pd;
        out.stats.flops += prep.prep_flops;
        ws.trace = trace;
    }
}

impl_detector_via_prepared!(ParallelSphereDecoder<F>, "SD subtree-parallel");

/// Replay one worker's recorded telemetry into the decode's main sink as
/// aggregate events. Counter totals (and therefore the per-level
/// `generated == accepted + pruned` identity) are preserved exactly;
/// span structure is aggregated (one `on_phase` per phase with the total)
/// and radius-update values are reported as the final radius, since the
/// recorder keeps counts, not event values.
fn replay_telemetry(t: &mut dyn TraceSink, rec: &SearchTelemetry, final_radius_sqr: f64) {
    for (level, l) in rec.levels().iter().enumerate() {
        if l.expanded > 0 || l.generated > 0 {
            t.on_expand(level, l.expanded, l.generated);
        }
        if l.accepted > 0 {
            t.on_accept(level, l.accepted);
        }
        if l.pruned > 0 {
            t.on_prune(level, l.pruned);
        }
        // Preserve both the sort count and the element total: n−1 empty
        // sorts plus one carrying every element.
        for _ in 1..l.sorts {
            t.on_sort(level, 0);
        }
        if l.sorts > 0 {
            t.on_sort(level, l.sorted_elements);
        }
        for _ in 0..l.radius_updates {
            t.on_radius_update(level, final_radius_sqr);
        }
    }
    for phase in [Phase::Expand, Phase::Sort, Phase::Leaf] {
        let amount = rec.phases.get(phase);
        if amount > 0 {
            t.on_phase(phase, amount);
        }
    }
}

/// A sorted depth-first search over `table` whose leaves sit at `leaves`.
fn sorted_dfs<'a, F: Float, S: DfsSink>(
    prep: &'a Prepared<F>,
    eval: EvalStrategy,
    leaves: usize,
    table: &'a mut DfsTable<F>,
    stats: &'a mut DetectionStats,
    sink: S,
) -> Dfs<'a, F, S> {
    Dfs {
        prep,
        eval,
        sort: true,
        leaves,
        table,
        stats,
        sink,
    }
}

/// The enumeration walk: the top `split` levels in Schnorr–Euchner order
/// on the calling thread, pruning against the (fixed) initial radius and
/// recording every surviving depth-`split` prefix as a subtree root.
struct Splitter<'a, F: Float> {
    radius: F,
    roots: &'a mut Vec<RootRef<F>>,
    root_paths: &'a mut Vec<usize>,
    /// Spend ledger of a budgeted decode; `None` when unlimited.
    budget: Option<&'a SharedBudget>,
}

impl<F: Float> DfsWalk<F> for Splitter<'_, F> {
    fn tripped(&mut self, _stats: &DetectionStats, children: u64) -> bool {
        self.budget.is_some_and(|b| b.check_and_charge(children))
    }

    fn admits(&self, pd: F) -> bool {
        pd < self.radius
    }

    fn leaf<S: DfsSink>(&mut self, path: &[usize], pd: F, _: &mut DetectionStats, _: &mut S) {
        let off = self.root_paths.len() as u32;
        self.roots.push(RootRef { pd, off });
        self.root_paths.extend_from_slice(path);
    }
}

/// One worker's walk over the subtrees dealt to it: the sequential
/// decoder's search with the incumbent radius replaced by the shared
/// atomic and the budget by the shared ledger.
struct Worker<'a, F: Float> {
    shared: &'a AtomicF64Min,
    best_pd: &'a mut Option<f64>,
    best_path: &'a mut Vec<usize>,
    /// Spend ledger of a budgeted decode; `None` when unlimited.
    budget: Option<&'a SharedBudget>,
    roots: &'a [RootRef<F>],
    root_paths: &'a [usize],
    split: usize,
}

impl<F: Float> Worker<'_, F> {
    /// Search every `lanes`-th subtree root from `lane` on.
    fn search<S: DfsSink>(&mut self, mut dfs: Dfs<'_, F, S>, lane: usize, lanes: usize) {
        let (roots, root_paths) = (self.roots, self.root_paths);
        for root in roots.iter().skip(lane).step_by(lanes) {
            // A subtree whose root already falls outside everyone's sphere
            // is dead; its children were never generated, so skipping keeps
            // the per-level accounting consistent.
            if !(root.pd.to_f64() < self.shared.load()) {
                continue;
            }
            let path = &root_paths[root.off as usize..][..self.split];
            if !dfs.walk(path, root.pd, self) {
                break;
            }
        }
    }
}

impl<F: Float> DfsWalk<F> for Worker<'_, F> {
    fn tripped(&mut self, _stats: &DetectionStats, children: u64) -> bool {
        self.budget.is_some_and(|b| b.check_and_charge(children))
    }

    /// Prune against everyone's best, not just our own.
    fn admits(&self, pd: F) -> bool {
        pd.to_f64() < self.shared.load()
    }

    fn leaf<S: DfsSink>(&mut self, path: &[usize], pd: F, st: &mut DetectionStats, sink: &mut S) {
        let leaf_pd = pd.to_f64();
        st.leaves_reached += 1;
        if self.shared.try_lower(leaf_pd) {
            st.radius_updates += 1;
            *self.best_pd = Some(leaf_pd);
            let t0 = span_clock(S::ACTIVE);
            self.best_path.clear();
            self.best_path.extend_from_slice(path);
            sink.on_phase(Phase::Leaf, span_ns(t0));
            sink.on_radius_update(path.len() - 1, leaf_pd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::dfs::SphereDecoder;
    use crate::ml::MlDetector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_wireless::{noise_variance, FrameData, Modulation};

    fn frames(
        n: usize,
        m: Modulation,
        snr_db: f64,
        count: usize,
        seed: u64,
    ) -> (Constellation, Vec<FrameData>) {
        let c = Constellation::new(m);
        let sigma2 = noise_variance(snr_db, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = (0..count)
            .map(|_| FrameData::generate(n, n, &c, sigma2, &mut rng))
            .collect();
        (c, f)
    }

    /// The subtree-parallel decoder on a channel whose metrics are all
    /// NaN: every lane comes back leafless at an infinite radius, so the
    /// decode returns the greedy leaf, flagged, as the sequential one does.
    #[test]
    fn an_uncapturable_sphere_returns_the_flagged_greedy_leaf() {
        let (c, huge) = crate::dfs::tests::huge_channel_frame(8);
        let par = ParallelSphereDecoder::<f64>::new(c.clone()).with_workers(2);
        let seq = SphereDecoder::<f64>::new(c);
        let (got, want) = (par.detect(&huge), seq.detect(&huge));
        assert!(got.stats.quality.is_truncated());
        assert_eq!(got.indices, want.indices);
        assert_eq!(got.stats.restarts, 0);
    }

    #[test]
    fn matches_ml() {
        let (c, frames) = frames(5, Modulation::Qam4, 6.0, 25, 100);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(mp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn matches_serial_dfs_metric_bitwise() {
        let (c, frames) = frames(8, Modulation::Qam4, 8.0, 15, 101);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone()).with_workers(4);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            let a = mp.detect(f);
            let b = sd.detect(f);
            // Same optimum: the winning leaf's metric is the same
            // pd + increment accumulation in both engines.
            assert_eq!(
                a.stats.final_radius_sqr.to_bits(),
                b.stats.final_radius_sqr.to_bits()
            );
        }
    }

    #[test]
    fn sixteen_qam_exactness() {
        let (c, frames) = frames(3, Modulation::Qam16, 8.0, 10, 102);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(mp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn single_antenna_degenerate_case() {
        // m = 1 cannot split below the root; must fall back to the
        // sequential path and stay exact.
        let (c, frames) = frames(1, Modulation::Qam4, 15.0, 10, 103);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone());
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(mp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn one_worker_is_bit_identical_to_sequential_including_stats() {
        let (c, frames) = frames(6, Modulation::Qam16, 10.0, 10, 105);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone()).with_workers(1);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            assert_eq!(mp.detect(f), sd.detect(f));
        }
    }

    #[test]
    fn oversized_split_depth_is_clamped() {
        let (c, frames) = frames(4, Modulation::Qam4, 8.0, 10, 106);
        // L = 99 ≥ n_tx: must clamp to n_tx − 1 and stay exact.
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
            .with_workers(2)
            .with_split_levels(99);
        assert_eq!(mp.effective_split_levels(4, 4), 3);
        let ml = MlDetector::new(c);
        for f in &frames {
            assert_eq!(mp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn more_workers_than_subtrees_leaves_some_idle() {
        // BPSK at L=1 yields only 2 subtree roots for 8 workers; the six
        // empty workers must not disturb exactness or stats merging.
        let c = Constellation::new(Modulation::Bpsk);
        let sigma2 = noise_variance(8.0, 5);
        let mut rng = StdRng::seed_from_u64(107);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
            .with_workers(8)
            .with_split_levels(1);
        let ml = MlDetector::new(c.clone());
        for _ in 0..10 {
            let f = FrameData::generate(5, 5, &c, sigma2, &mut rng);
            let d = mp.detect(&f);
            assert_eq!(d.indices, ml.detect(&f).indices);
            assert_eq!(
                d.stats.nodes_generated,
                d.stats.per_level_generated.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn finite_radius_restarts_stay_exact() {
        let (c, frames) = frames(4, Modulation::Qam4, 4.0, 25, 108);
        let inf: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone()).with_workers(4);
        let tight: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
            .with_workers(4)
            .with_initial_radius(InitialRadius::ScaledNoise(0.01));
        let mut saw_restart = false;
        for f in &frames {
            let a = inf.detect(f);
            let b = tight.detect(f);
            assert_eq!(a.indices, b.indices);
            assert_eq!(
                a.stats.final_radius_sqr.to_bits(),
                b.stats.final_radius_sqr.to_bits()
            );
            saw_restart |= b.stats.restarts > 0;
        }
        assert!(saw_restart, "0.01·N·σ² should be empty at least once");
    }

    #[test]
    fn deeper_splits_stay_exact() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 10, 109);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c.clone());
        for l in 1..=5 {
            let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
                .with_workers(3)
                .with_split_levels(l);
            for f in &frames {
                let a = mp.detect(f);
                let b = sd.detect(f);
                assert_eq!(
                    a.stats.final_radius_sqr.to_bits(),
                    b.stats.final_radius_sqr.to_bits(),
                    "split depth {l}"
                );
            }
        }
    }

    #[test]
    fn work_does_not_explode_vs_serial() {
        // Parallel workers start without the serial search's early
        // radius, so some extra work is expected — but sharing must keep
        // it bounded (well under the blowup of independent subtrees).
        let (c, frames) = frames(8, Modulation::Qam4, 8.0, 10, 104);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone());
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let np: u64 = frames
            .iter()
            .map(|f| mp.detect(f).stats.nodes_generated)
            .sum();
        let ns: u64 = frames
            .iter()
            .map(|f| sd.detect(f).stats.nodes_generated)
            .sum();
        assert!(
            np < ns * 3,
            "parallel explored {np} vs serial {ns}: sharing is broken"
        );
    }

    #[test]
    fn worker_budget_caps_lanes_and_stays_exact() {
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 12, 111);
        let budget = Arc::new(WorkerBudget::new(4));
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
            .with_workers(4)
            .with_worker_budget(Arc::clone(&budget));
        let ml = MlDetector::new(c);
        // Sweep the allowance across decodes — including values above the
        // configured width, which must clamp to it — and stay exact ML.
        for (i, f) in frames.iter().enumerate() {
            budget.set([4, 2, 1, 3, 9][i % 5]);
            assert_eq!(mp.detect(f).indices, ml.detect(f).indices);
        }
    }

    #[test]
    fn worker_budget_of_one_is_bit_identical_to_sequential() {
        let (c, frames) = frames(6, Modulation::Qam16, 10.0, 10, 112);
        let budget = Arc::new(WorkerBudget::new(1));
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone())
            .with_workers(4)
            .with_worker_budget(budget);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        for f in &frames {
            // Budget 1 takes the sequential path outright: full Detection
            // equality, stats included.
            assert_eq!(mp.detect(f), sd.detect(f));
        }
    }

    #[test]
    fn worker_budget_clamps_to_at_least_one() {
        let b = WorkerBudget::new(0);
        assert_eq!(b.get(), 1);
        b.set(0);
        assert_eq!(b.get(), 1);
        b.set(6);
        assert_eq!(b.get(), 6);
    }

    /// An unlimited budget through the budgeted entry point is literally
    /// the unbudgeted decode (same code path, no spend ledger).
    #[test]
    fn unlimited_budget_matches_plain_parallel_decode() {
        use crate::engine::DecodeBudget;
        let (c, frames) = frames(6, Modulation::Qam4, 8.0, 8, 113);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c).with_workers(4);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        for f in &frames {
            let prep = mp.prepare_frame(f);
            let plain = mp.detect_prepared_in(&prep, f64::INFINITY, &mut ws);
            mp.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::UNLIMITED,
                &mut ws,
                &mut out,
            );
            // Node counts vary run to run under parallelism, but the
            // answer and its metric are deterministic.
            assert_eq!(out.indices, plain.indices);
            assert_eq!(
                out.stats.final_radius_sqr.to_bits(),
                plain.stats.final_radius_sqr.to_bits()
            );
            assert_eq!(out.stats.quality, crate::detector::SearchQuality::Exact);
        }
    }

    /// A tight budget truncates every lane, flags the result, and still
    /// returns a complete symbol vector.
    #[test]
    fn tight_budget_truncates_parallel_decode() {
        use crate::engine::DecodeBudget;
        let (c, frames) = frames(8, Modulation::Qam4, 4.0, 10, 114);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone()).with_workers(4);
        let mut ws = SearchWorkspace::new();
        let mut out = Detection::default();
        let mut saw_truncation = false;
        for f in &frames {
            let prep = mp.prepare_frame(f);
            // A handful of nodes: enumeration alone blows through this.
            mp.detect_prepared_budgeted_into(
                &prep,
                f64::INFINITY,
                &DecodeBudget::nodes(8),
                &mut ws,
                &mut out,
            );
            assert_eq!(out.indices.len(), 8, "always a complete vector");
            if out.stats.quality.is_truncated() {
                saw_truncation = true;
                let metric = prep.full_metric(&out.indices) - prep.tail_energy;
                assert!(
                    (metric - out.stats.final_radius_sqr).abs() < 1e-8,
                    "reported radius must be the returned leaf's metric"
                );
            }
        }
        assert!(saw_truncation, "8-node budgets must trip at 8x8 / 4 dB");
    }

    /// Budgets thread through the sequential fallback (1 worker)
    /// bit-identically to the sequential decoder's budgeted decode.
    #[test]
    fn one_worker_budgeted_matches_sequential_budgeted() {
        use crate::engine::DecodeBudget;
        let (c, frames) = frames(6, Modulation::Qam4, 6.0, 8, 115);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c.clone()).with_workers(1);
        let sd: SphereDecoder<f64> = SphereDecoder::new(c);
        let mut ws = SearchWorkspace::new();
        let mut a = Detection::default();
        let mut b = Detection::default();
        for f in &frames {
            let prep = mp.prepare_frame(f);
            let budget = DecodeBudget::nodes(24);
            mp.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut a);
            sd.detect_prepared_budgeted_into(&prep, f64::INFINITY, &budget, &mut ws, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stats_reconcile_under_parallelism() {
        let (c, frames) = frames(6, Modulation::Qam16, 12.0, 8, 110);
        let mp: ParallelSphereDecoder<f64> = ParallelSphereDecoder::new(c).with_workers(4);
        for f in &frames {
            let d = mp.detect(f);
            let s = &d.stats;
            assert_eq!(s.nodes_generated, s.per_level_generated.iter().sum::<u64>());
            assert_eq!(s.nodes_generated, s.nodes_expanded * 16);
            assert!(s.leaves_reached >= 1);
            assert!(s.final_radius_sqr.is_finite());
            assert!(s.flops > 0);
        }
    }
}
