//! Slab-backed search-tree arena.
//!
//! The tree searches historically carried a `Vec<usize>` path inside every
//! open node, cloning it for each surviving child — one heap allocation
//! per generated node, right in the hot loop. The arena replaces those
//! paths with parent links: a node is 12 bytes in three parallel slabs
//! (`parent`, `symbol`, `depth`), a frontier/heap entry is a plain
//! `(f64, u32)` pair, and a full path is materialized only when a leaf is
//! actually accepted. This is the software analogue of the paper's
//! memory-subsystem tree table (Sec. IV-C), where nodes reference their
//! parent row instead of storing the symbol prefix.
//!
//! Walking the parent chain from a node upward yields its fixed symbols
//! deepest-first — exactly the suffix order `s_{i+1}, s_{i+2}, …` that
//! partial-distance evaluation consumes (see [`crate::pd`]), so expansion
//! never needs the materialized path at all.
//!
//! [`SearchWorkspace`] bundles the arena with every other buffer a search
//! needs (PD scratch, frontier vectors, the best-first heap, the
//! depth-first state table). Holding one workspace across
//! `detect_prepared_in` calls makes the steady-state search loop
//! allocation-free: after capacity warm-up, decoding touches the
//! allocator only to build the returned `Detection`.

use crate::best_first::OpenNode;
use crate::dfs::DfsTable;
use crate::pd::PdScratch;
use crate::quantized::FxSweep;
use crate::trace::{SearchTelemetry, TraceSink};
use sd_math::Float;
use std::collections::BinaryHeap;

/// Sentinel parent id of the (virtual) root — the empty path.
pub const NIL: u32 = u32::MAX;

/// Append-only pool of search-tree nodes with parent links.
#[derive(Clone, Debug, Default)]
pub struct NodeArena {
    parent: Vec<u32>,
    symbol: Vec<u32>,
    depth: Vec<u32>,
}

impl NodeArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty arena with room for `nodes` nodes before reallocating.
    pub fn with_capacity(nodes: usize) -> Self {
        NodeArena {
            parent: Vec::with_capacity(nodes),
            symbol: Vec::with_capacity(nodes),
            depth: Vec::with_capacity(nodes),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if no node has been allocated.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Drop every node, keeping the slabs' capacity.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.symbol.clear();
        self.depth.clear();
    }

    /// Allocate a child of `parent` (or of the root, with [`NIL`]) fixing
    /// constellation index `symbol`; returns its id.
    pub fn alloc(&mut self, parent: u32, symbol: usize) -> u32 {
        let id = self.parent.len() as u32;
        assert!(id != NIL, "arena exhausted u32 ids");
        let depth = if parent == NIL {
            1
        } else {
            self.depth[parent as usize] + 1
        };
        self.parent.push(parent);
        self.symbol.push(symbol as u32);
        self.depth.push(depth);
        id
    }

    /// Parent id of `id` ([`NIL`] for level-1 nodes).
    #[inline]
    pub fn parent(&self, id: u32) -> u32 {
        self.parent[id as usize]
    }

    /// Constellation index fixed by node `id`.
    #[inline]
    pub fn symbol(&self, id: u32) -> usize {
        self.symbol[id as usize] as usize
    }

    /// Path length of node `id`; [`NIL`] (the empty path) has depth 0.
    #[inline]
    pub fn depth(&self, id: u32) -> usize {
        if id == NIL {
            0
        } else {
            self.depth[id as usize] as usize
        }
    }

    /// Symbols fixed along the path of `id`, deepest-first (the node's own
    /// symbol, then its parent's, …) — the PD suffix order.
    #[inline]
    pub fn ancestry(&self, id: u32) -> Ancestry<'_> {
        Ancestry { arena: self, id }
    }

    /// Materialize the depth-order path of node `id` into `buf`
    /// (`buf[d]` = symbol fixed at tree depth `d`), replacing its
    /// contents. `NIL` yields the empty path.
    pub fn path_into(&self, id: u32, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend(self.ancestry(id));
        buf.reverse();
    }
}

/// Iterator over a node's fixed symbols, deepest-first.
pub struct Ancestry<'a> {
    arena: &'a NodeArena,
    id: u32,
}

impl Iterator for Ancestry<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.id == NIL {
            return None;
        }
        let sym = self.arena.symbol(self.id);
        self.id = self.arena.parent(self.id);
        Some(sym)
    }
}

/// Every reusable buffer one tree search needs. Create once, pass to
/// `detect_prepared_in` repeatedly; all capacity survives between decodes.
pub struct SearchWorkspace<F: Float> {
    /// Node pool shared by the arena-based searches.
    pub(crate) arena: NodeArena,
    /// Partial-distance evaluation scratch (increments, suffix, GEMM
    /// operands).
    pub(crate) scratch: PdScratch<F>,
    /// Best-first open list.
    pub(crate) heap: BinaryHeap<OpenNode>,
    /// Level-synchronous frontier (BFS), `(pd, node id)`.
    pub(crate) frontier: Vec<(f64, u32)>,
    /// Next-level frontier (BFS).
    pub(crate) next: Vec<(f64, u32)>,
    /// K-best frontier in the working precision.
    pub(crate) frontier_f: Vec<(F, u32)>,
    /// K-best next-level frontier.
    pub(crate) next_f: Vec<(F, u32)>,
    /// Node-id staging buffer handed to `eval_children_batch`.
    pub(crate) ids: Vec<u32>,
    /// Per-subcarrier `ȳ_i` lanes of the current level — fed to
    /// `eval_children_batch_fused` by the fused block decoders.
    pub(crate) ybar_lanes: Vec<sd_math::Complex<F>>,
    /// Path materialization buffer.
    pub(crate) path_buf: Vec<usize>,
    /// Path under construction (FSD, greedy completion).
    pub(crate) path: Vec<usize>,
    /// Depth-first searches' best leaf path.
    pub(crate) best_path: Vec<usize>,
    /// Depth-first searches' per-level state table.
    pub(crate) dfs: DfsTable<F>,
    /// Fixed-point K-best/FSD survivor table and quantized problem.
    pub(crate) fx: FxSweep,
    /// Optional observability sink; engines emit search events into it
    /// when present and skip every emission when `None`.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
}

impl<F: Float> SearchWorkspace<F> {
    /// Fresh workspace; buffers grow to steady state on first use.
    pub fn new() -> Self {
        SearchWorkspace {
            arena: NodeArena::new(),
            scratch: PdScratch::empty(),
            heap: BinaryHeap::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            frontier_f: Vec::new(),
            next_f: Vec::new(),
            ids: Vec::new(),
            ybar_lanes: Vec::new(),
            path_buf: Vec::new(),
            path: Vec::new(),
            best_path: Vec::new(),
            dfs: DfsTable::default(),
            fx: FxSweep::default(),
            trace: None,
        }
    }

    /// Install a [`TraceSink`]; every subsequent decode through this
    /// workspace emits its search events into it. Returns the previously
    /// installed sink, if any.
    pub fn install_trace(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.trace.replace(sink)
    }

    /// Convenience: install a fresh [`SearchTelemetry`] recorder
    /// (retrievable through [`SearchWorkspace::telemetry`]).
    pub fn install_telemetry(&mut self) {
        self.install_trace(Box::new(SearchTelemetry::new()));
    }

    /// Remove and return the installed sink (tracing is disabled again).
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Whether a sink is installed (decodes will emit events).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The installed sink, when it is a [`SearchTelemetry`] recorder —
    /// the post-decode read path for per-level counters and the phase
    /// profile.
    pub fn telemetry(&self) -> Option<&SearchTelemetry> {
        self.trace
            .as_ref()
            .and_then(|t| t.as_any().downcast_ref::<SearchTelemetry>())
    }

    /// Size the per-problem buffers for branching factor `order` and tree
    /// depth `n_tx`, allocating only on growth.
    pub(crate) fn prepare(&mut self, order: usize, n_tx: usize) {
        self.scratch.ensure(order, n_tx);
        self.dfs.ensure(order, n_tx);
        self.arena.clear();
        self.heap.clear();
        self.frontier.clear();
        self.next.clear();
        self.frontier_f.clear();
        self.next_f.clear();
        self.ids.clear();
        self.ybar_lanes.clear();
        self.path_buf.clear();
        self.path.clear();
        self.best_path.clear();
    }
}

impl<F: Float> Default for SearchWorkspace<F> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_links_and_depths() {
        let mut a = NodeArena::new();
        let n1 = a.alloc(NIL, 3);
        let n2 = a.alloc(n1, 1);
        let n3 = a.alloc(n2, 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.depth(NIL), 0);
        assert_eq!(a.depth(n1), 1);
        assert_eq!(a.depth(n3), 3);
        assert_eq!(a.parent(n3), n2);
        assert_eq!(a.symbol(n1), 3);
    }

    #[test]
    fn ancestry_is_deepest_first() {
        let mut a = NodeArena::new();
        let n1 = a.alloc(NIL, 7);
        let n2 = a.alloc(n1, 5);
        let n3 = a.alloc(n2, 9);
        let suffix: Vec<usize> = a.ancestry(n3).collect();
        assert_eq!(suffix, vec![9, 5, 7]);
        assert_eq!(a.ancestry(NIL).count(), 0);
    }

    #[test]
    fn path_into_is_depth_order() {
        let mut a = NodeArena::new();
        let n1 = a.alloc(NIL, 7);
        let n2 = a.alloc(n1, 5);
        let n3 = a.alloc(n2, 9);
        let mut buf = vec![99; 8];
        a.path_into(n3, &mut buf);
        assert_eq!(buf, vec![7, 5, 9]);
        a.path_into(NIL, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = NodeArena::with_capacity(64);
        for _ in 0..50 {
            a.alloc(NIL, 0);
        }
        let cap = a.parent.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.parent.capacity(), cap);
    }

    #[test]
    fn siblings_can_fan_out_from_one_parent() {
        // The slab never moves earlier nodes: ids allocated before a
        // fan-out stay valid afterwards.
        let mut a = NodeArena::new();
        let p = a.alloc(NIL, 2);
        let kids: Vec<u32> = (0..16).map(|c| a.alloc(p, c)).collect();
        for (c, &k) in kids.iter().enumerate() {
            assert_eq!(a.parent(k), p);
            assert_eq!(a.symbol(k), c);
            assert_eq!(a.depth(k), 2);
        }
    }
}
