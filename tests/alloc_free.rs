//! Steady-state allocation audit for the arena searches.
//!
//! A counting `#[global_allocator]` proves the ISSUE's core claim: once a
//! [`SearchWorkspace`] has warmed up to capacity, decoding performs **no
//! per-node heap allocation** — the remaining per-*decode* allocations
//! (the returned index vector, the stats' per-level histogram, the BFS
//! trace) are a small constant, while the search generates thousands of
//! nodes. The seed implementation cloned a `Vec<usize>` path per surviving
//! child, so its allocation count scaled with the node count.

use sd_core::preprocess::{preprocess, Prepared};
use sd_core::{
    BestFirstSd, BfsGemmSd, FixedComplexitySd, KBestSd, PreparedDetector, SearchWorkspace,
    SphereDecoder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System allocator wrapper counting the `alloc`/`realloc` calls of the
/// threads the measured code runs on.
///
/// The test harness shares the process and allocates on its own threads
/// whenever a test starts or finishes, which can fall inside another
/// test's measured window. So a call counts only on a thread the harness
/// does not run:
/// * the first thread to allocate is the main thread (nothing runs before
///   it), and it never counts;
/// * a test thread counts only while it holds the gate ([`serialized`]),
///   so a test that waits for it or has released it does not;
/// * a thread whose first allocation falls inside an open [`Window`] is a
///   test thread the harness started meanwhile, and never counts. The
///   measured code's own threads (runtime workers, the decode pool)
///   start and warm up before any window opens.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);
static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);

/// A thread's part in the count: not yet seen, counted, or the harness's.
const UNSEEN: u8 = 0;
const COUNTED: u8 = 1;
const HARNESS: u8 = 2;

thread_local! {
    static ROLE: Cell<u8> = const { Cell::new(UNSEEN) };
}

fn count_call() {
    let counted = ROLE
        .try_with(|role| {
            if role.get() == UNSEEN {
                let harness =
                    !MAIN_SEEN.swap(true, Ordering::SeqCst) || WINDOW_OPEN.load(Ordering::SeqCst);
                role.set(if harness { HARNESS } else { COUNTED });
            }
            role.get() == COUNTED
        })
        .unwrap_or(false);
    if counted {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

fn set_role(role: u8) {
    ROLE.with(|r| r.set(role));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A measured window: the counted calls from [`Window::open`] to
/// [`Window::close`].
struct Window(u64);

impl Window {
    fn open() -> Self {
        WINDOW_OPEN.store(true, Ordering::SeqCst);
        Window(ALLOC_CALLS.load(Ordering::SeqCst))
    }

    fn close(self) -> u64 {
        let calls = ALLOC_CALLS.load(Ordering::SeqCst) - self.0;
        WINDOW_OPEN.store(false, Ordering::SeqCst);
        calls
    }
}

/// Tests in this binary must not overlap their measurement windows: each
/// takes this gate for its whole body, and its thread counts only while
/// holding it.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Gate {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl Drop for Gate {
    fn drop(&mut self) {
        WINDOW_OPEN.store(false, Ordering::SeqCst);
        set_role(HARNESS);
    }
}

fn serialized() -> Gate {
    set_role(HARNESS);
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    set_role(COUNTED);
    Gate { _guard: guard }
}

/// Fixed 8×8 16-QAM problem set, prepared outside the measured region.
/// Returns `(constellation, noise variance, prepared problems)`.
fn prepared_problems() -> (sd_wireless::Constellation, f64, Vec<Prepared<f64>>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let c = sd_wireless::Constellation::new(sd_wireless::Modulation::Qam16);
    let sigma2 = sd_wireless::noise_variance(14.0, 8);
    let mut rng = StdRng::seed_from_u64(0x5DC0DE);
    let preps = (0..8)
        .map(|_| {
            let f = sd_wireless::FrameData::generate(8, 8, &c, sigma2, &mut rng);
            preprocess::<f64>(&f, &c)
        })
        .collect();
    (c, sigma2, preps)
}

/// Run `decode` over all problems twice (warm-up + measured) and return
/// `(alloc calls in the measured pass, nodes generated in it)`.
fn measure(
    preps: &[Prepared<f64>],
    mut decode: impl FnMut(&Prepared<f64>) -> sd_core::Detection,
) -> (u64, u64) {
    for p in preps {
        std::hint::black_box(decode(p));
    }
    let window = Window::open();
    let mut nodes = 0;
    for p in preps {
        nodes += std::hint::black_box(decode(p)).stats.nodes_generated;
    }
    (window.close(), nodes)
}

/// Per-decode allocation budget: index vector + stats histogram + a few
/// fixed-size odds and ends (the BFS trace), all independent of tree size.
const PER_DECODE_BUDGET: u64 = 16;

#[test]
fn dfs_steady_state_is_node_allocation_free() {
    let _g = serialized();
    let (c, _sigma2, preps) = prepared_problems();
    let sd: SphereDecoder<f64> = SphereDecoder::new(c);
    let mut ws = SearchWorkspace::new();
    let (allocs, nodes) = measure(&preps, |p| sd.detect_prepared_in(p, f64::INFINITY, &mut ws));
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the search loop allocates"
    );
}

#[test]
fn best_first_steady_state_is_node_allocation_free() {
    let _g = serialized();
    let (c, _sigma2, preps) = prepared_problems();
    let bf: BestFirstSd<f64> = BestFirstSd::new(c);
    let mut ws = SearchWorkspace::new();
    let (allocs, nodes) = measure(&preps, |p| bf.detect_prepared_in(p, f64::INFINITY, &mut ws));
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the search loop allocates"
    );
}

#[test]
fn bfs_steady_state_is_node_allocation_free() {
    let _g = serialized();
    let (c, _sigma2, preps) = prepared_problems();
    let bfs: BfsGemmSd<f64> = BfsGemmSd::new(c).with_max_frontier(256);
    let mut ws = SearchWorkspace::new();
    let r2 = sd_core::InitialRadius::ScaledNoise(2.0).resolve(8, _sigma2);
    // The per-decode trace allocates its level vector; still O(M), not O(nodes).
    let (allocs, nodes) = measure(&preps, |p| bfs.detect_prepared_traced_in(p, r2, &mut ws).0);
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= 2 * PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the level loop allocates"
    );
}

#[test]
fn kbest_steady_state_is_node_allocation_free() {
    let _g = serialized();
    let (c, _sigma2, preps) = prepared_problems();
    let kb: KBestSd<f64> = KBestSd::new(c, 64);
    let mut ws = SearchWorkspace::new();
    let (allocs, nodes) = measure(&preps, |p| kb.detect_prepared_in(p, f64::INFINITY, &mut ws));
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the sweep allocates"
    );
}

#[test]
fn bfs_untrace_prepared_path_is_node_allocation_free() {
    let _g = serialized();
    // The plain engine entry point (no trace) must match the traced path's
    // steady-state behavior: recycled workspace, constant per-decode cost.
    let (c, sigma2, preps) = prepared_problems();
    let bfs: BfsGemmSd<f64> = BfsGemmSd::new(c).with_max_frontier(256);
    let mut ws = SearchWorkspace::new();
    let r2 = sd_core::InitialRadius::ScaledNoise(2.0).resolve(8, sigma2);
    let (allocs, nodes) = measure(&preps, |p| bfs.detect_prepared_in(p, r2, &mut ws));
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the level loop allocates"
    );
}

#[test]
fn fsd_steady_state_is_node_allocation_free() {
    let _g = serialized();
    let (c, _sigma2, preps) = prepared_problems();
    let fsd: FixedComplexitySd<f64> = FixedComplexitySd::new(c);
    let mut ws = SearchWorkspace::new();
    let (allocs, nodes) = measure(&preps, |p| {
        fsd.detect_prepared_in(p, f64::INFINITY, &mut ws)
    });
    assert!(nodes > 1_000, "search too small to be meaningful: {nodes}");
    assert!(
        allocs <= PER_DECODE_BUDGET * preps.len() as u64,
        "{allocs} allocations for {nodes} nodes: the prefix sweep allocates"
    );
}

#[test]
fn disabled_trace_decode_is_exactly_allocation_free() {
    let _g = serialized();
    // With no TraceSink installed the observability layer must cost
    // nothing: a warm workspace + recycled Detection decode performs zero
    // allocations — not merely "within budget" — across the engine zoo.
    let (c, _sigma2, preps) = prepared_problems();
    let dets: Vec<Box<dyn PreparedDetector<f64>>> = vec![
        Box::new(SphereDecoder::new(c.clone())),
        Box::new(BestFirstSd::new(c.clone())),
        Box::new(KBestSd::new(c, 64)),
    ];
    let mut ws = SearchWorkspace::new();
    assert!(!ws.trace_enabled());
    let mut out = sd_core::Detection::default();
    for det in &dets {
        for p in &preps {
            det.detect_prepared_into(p, f64::INFINITY, &mut ws, &mut out);
        }
    }
    let window = Window::open();
    let mut nodes = 0;
    for det in &dets {
        for p in &preps {
            det.detect_prepared_into(p, f64::INFINITY, &mut ws, &mut out);
            nodes += std::hint::black_box(&out).stats.nodes_generated;
        }
    }
    let delta = window.close();
    assert!(nodes > 10_000, "search too small to be meaningful: {nodes}");
    assert_eq!(
        delta, 0,
        "{delta} allocations with tracing disabled ({nodes} nodes): \
         the observability layer leaks into the hot path"
    );
}

#[test]
fn parallel_decode_steady_state_is_exactly_allocation_free() {
    let _g = serialized();
    // The subtree-parallel engine must match the sequential zero-alloc
    // guarantee: the first decode builds the persistent worker pool and
    // per-worker workspaces; after that, enumeration, the broadcast, the
    // shared-radius CAS loop, stat merging, and telemetry-free searches
    // perform zero allocations.
    let (c, _sigma2, preps) = prepared_problems();
    let par = sd_core::ParallelSphereDecoder::<f64>::new(c).with_workers(4);
    let mut ws = SearchWorkspace::new();
    let mut out = sd_core::Detection::default();
    for p in &preps {
        par.detect_prepared_into(p, f64::INFINITY, &mut ws, &mut out);
    }
    let window = Window::open();
    let mut nodes = 0;
    for p in &preps {
        par.detect_prepared_into(p, f64::INFINITY, &mut ws, &mut out);
        nodes += std::hint::black_box(&out).stats.nodes_generated;
    }
    let delta = window.close();
    assert!(nodes > 10_000, "search too small to be meaningful: {nodes}");
    assert_eq!(
        delta, 0,
        "{delta} allocations across 8 parallel decodes ({nodes} nodes): \
         the fan-out/join path allocates in steady state"
    );
}

#[test]
fn installed_telemetry_cost_is_per_level_not_per_node() {
    let _g = serialized();
    // With a SearchTelemetry recorder installed the per-decode cost may
    // include the level table, but must stay O(M) — never O(nodes).
    let (c, _sigma2, preps) = prepared_problems();
    let sd: SphereDecoder<f64> = SphereDecoder::new(c);
    let mut ws = SearchWorkspace::new();
    ws.install_telemetry();
    let mut out = sd_core::Detection::default();
    let warm = |ws: &mut SearchWorkspace<f64>, out: &mut sd_core::Detection| {
        for p in &preps {
            sd.detect_prepared_into(p, f64::INFINITY, ws, out);
        }
    };
    warm(&mut ws, &mut out);
    let window = Window::open();
    warm(&mut ws, &mut out);
    let delta = window.close();
    assert!(
        delta <= PER_DECODE_BUDGET * preps.len() as u64,
        "{delta} allocations with telemetry installed: recorder allocates per node"
    );
}

#[test]
fn reference_implementation_allocates_per_node() {
    let _g = serialized();
    // Sanity check that the counter actually sees the seed behavior this
    // PR removes: the path-cloning reference allocates proportionally to
    // the number of surviving nodes.
    let (_, _, preps) = prepared_problems();
    let window = Window::open();
    let mut nodes = 0;
    for p in &preps {
        nodes += sd_core::reference::kbest_reference(p, 64)
            .stats
            .nodes_generated;
    }
    let delta = window.close();
    assert!(
        delta > nodes / 4,
        "reference made only {delta} allocations for {nodes} nodes?"
    );
}

#[test]
fn fused_block_decode_steady_state_is_exactly_allocation_free() {
    let _g = serialized();
    // The cross-subcarrier fused path — one GEMM batch per tree level for
    // a whole coherence block — must hold the same steady-state guarantee
    // as the per-vector engines: once the workspace has warmed to the
    // fused frontier width (K × B lanes), decoding a block performs zero
    // allocations across the float and quantized fusable engines. The
    // 16-QAM block cuts each subcarrier on its own; the QAM4 block's
    // fixed-point K-best cuts all 16 subcarriers at once in lanes.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_core::preprocess::BlockPrep;
    use sd_core::{decode_block_fused_into, DecodeBudget, Detection};
    use sd_wireless::{Constellation, FrameData, Modulation};
    let block = |c: &Constellation, seed: u64| -> Vec<FrameData> {
        let sigma2 = sd_wireless::noise_variance(14.0, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = FrameData::generate(8, 8, c, sigma2, &mut rng);
        (0..16)
            .map(|_| {
                let mut f = base.clone();
                let fresh = FrameData::generate(8, 8, c, sigma2, &mut rng);
                f.y = fresh.y;
                f.tx = fresh.tx;
                f
            })
            .collect()
    };
    let (c16, c4) = (
        Constellation::new(Modulation::Qam16),
        Constellation::new(Modulation::Qam4),
    );
    let (qam16, qam4) = (block(&c16, 0xF05ED), block(&c4, 0xF05E4));
    type Case<'a> = (Box<dyn PreparedDetector<f64>>, &'a [FrameData]);
    let dets: Vec<Case> = vec![
        (Box::new(KBestSd::new(c16.clone(), 16)), &qam16),
        (
            Box::new(sd_core::QuantizedKBestSd::new(c16.clone(), 16)),
            &qam16,
        ),
        (Box::new(sd_core::QuantizedFsd::new(c16)), &qam16),
        (Box::new(sd_core::QuantizedKBestSd::new(c4, 16)), &qam4),
    ];
    let mut scratch = sd_core::preprocess::PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = sd_core::preprocess::Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut out = vec![Detection::default(); 16];
    // Two warm-up passes: the level loop ping-pongs two frontier buffers,
    // so a single pass can leave the spare one under max capacity.
    for (det, frames) in dets.iter().chain(dets.iter()) {
        let (_, fused) = decode_block_fused_into(
            &**det,
            frames,
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut out,
        );
        assert!(fused, "warm-up must take the fused path");
    }
    let window = Window::open();
    let mut nodes = 0;
    for (det, frames) in &dets {
        decode_block_fused_into(
            &**det,
            frames,
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut out,
        );
        for d in std::hint::black_box(&out) {
            nodes += d.stats.nodes_generated;
        }
    }
    let delta = window.close();
    assert!(nodes > 10_000, "search too small to be meaningful: {nodes}");
    assert_eq!(
        delta, 0,
        "{delta} allocations across 4 fused block decodes ({nodes} nodes): \
         the fused level loop allocates in steady state"
    );
}

/// One lock-step pass over the ring: submit each request, wait for its
/// response, recycle the detection buffer, and put the request back.
/// Returns the nodes generated during the pass.
fn serve_roundtrip(
    rt: &sd_serve::ServeRuntime,
    ring: &mut std::collections::VecDeque<sd_serve::DetectionRequest>,
) -> u64 {
    let mut nodes = 0;
    for _ in 0..ring.len() {
        let req = ring.pop_front().unwrap();
        rt.submit(req).expect("lock-step never fills the queue");
        let resp = rt
            .collect_timeout(std::time::Duration::from_secs(10))
            .expect("runtime stalled");
        nodes += resp.detection.stats.nodes_generated;
        ring.push_back(rt.recycle(resp));
    }
    nodes
}

#[test]
fn serve_steady_state_is_request_allocation_free() {
    let _g = serialized();
    use sd_serve::{BatchPolicy, LadderConfig, LoadConfig, ServeConfig, ServeRuntime};
    // Closed-loop client over the serving runtime: every buffer —
    // ingress/response queues, the worker's scratch, the pooled Detection
    // slot, the request frames themselves — round-trips, so after warm-up
    // the whole submit→decode→collect→recycle cycle must not allocate.
    let cfg = LoadConfig {
        n_tx: 8,
        n_rx: 8,
        modulation: sd_wireless::Modulation::Qam16,
        snr_grid_db: vec![14.0],
        n_requests: 8,
        offered_rate_hz: 0.0,
        deadline: std::time::Duration::from_secs(1),
        seed: 0xA110C,
    };
    let c = sd_wireless::Constellation::new(cfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(16)
            .with_batch(BatchPolicy::unbatched())
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            }),
        c.clone(),
    );
    let mut ring: std::collections::VecDeque<_> = sd_serve::build_requests(&cfg, &c).into();
    for _ in 0..3 {
        serve_roundtrip(&rt, &mut ring);
    }
    let window = Window::open();
    let mut nodes = 0;
    for _ in 0..8 {
        nodes += serve_roundtrip(&rt, &mut ring);
    }
    let delta = window.close();
    assert!(nodes > 10_000, "search too small to be meaningful: {nodes}");
    assert_eq!(
        delta, 0,
        "{delta} allocations across 64 served requests ({nodes} nodes): \
         the steady-state serve path allocates"
    );
    rt.shutdown();
}

/// One lock-step pass over a ring of frames: submit each, wait for its
/// response, recycle the detection block, and put the frame back.
/// Returns the nodes generated during the pass.
fn serve_frame_roundtrip(
    rt: &sd_serve::ServeRuntime,
    ring: &mut std::collections::VecDeque<sd_serve::FrameRequest>,
) -> u64 {
    let mut nodes = 0;
    for _ in 0..ring.len() {
        let req = ring.pop_front().unwrap();
        rt.submit_frame(req)
            .expect("lock-step never fills the queue");
        let resp = rt
            .collect_frame_timeout(std::time::Duration::from_secs(10))
            .expect("runtime stalled");
        nodes += resp
            .detections
            .iter()
            .map(|d| d.stats.nodes_generated)
            .sum::<u64>();
        ring.push_back(rt.recycle_frame(resp));
    }
    nodes
}

#[test]
fn served_frames_steady_state_is_allocation_free() {
    let _g = serialized();
    use sd_serve::{
        build_frame_requests, build_requests, default_registry, BatchPolicy, FrameLoadConfig,
        FrameRequest, LadderConfig, LoadConfig, ServeConfig, ServeRuntime,
    };
    use sd_wireless::{GridConfig, Modulation};
    use std::time::Duration;
    // The submit_frame → collect_frame_timeout → recycle_frame round trip
    // on the exact tier (per-subcarrier loop) and on a fusable tier, with
    // vectors riding along. Three channels, each split into two frames,
    // cycle through a two-entry prep cache: every pass misses (and
    // evicts) on each channel's first frame and hits on its second, and
    // the i.i.d. vectors always miss — the steady state must not
    // allocate either way.
    let ladder = LadderConfig {
        enabled: false,
        kbest_k: 16,
        anytime: false,
    };
    let grid = FrameLoadConfig {
        grid: GridConfig::new(24, 2, 8, 8)
            .with_coherence(8, 2)
            .with_snr(14.0, 0.0),
        modulation: Modulation::Qam16,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(1),
        seed: 0xF2A3E,
    };
    let c = sd_wireless::Constellation::new(grid.modulation);
    let vectors = LoadConfig {
        n_tx: 8,
        n_rx: 8,
        modulation: grid.modulation,
        snr_grid_db: vec![14.0],
        n_requests: 4,
        offered_rate_hz: 0.0,
        deadline: Duration::from_secs(1),
        seed: 0xA110D,
    };
    for (tier, label) in [(0, "exact"), (1, "k-best")] {
        let rt = ServeRuntime::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(16)
                .with_batch(BatchPolicy::unbatched())
                .with_ladder(ladder)
                .with_prep_cache(2),
            vec![default_registry(&c, &ladder).remove(tier)],
        );
        let mut frames: std::collections::VecDeque<FrameRequest> = build_frame_requests(&grid, &c)
            .into_iter()
            .flat_map(|block| {
                let (a, b) = block.subcarriers.split_at(8);
                [a.to_vec(), b.to_vec()]
                    .map(|sc| FrameRequest::new(block.id, sc, block.snr_db, block.deadline))
            })
            .collect();
        assert_eq!(frames.len(), 6);
        let mut ring: std::collections::VecDeque<_> = build_requests(&vectors, &c).into();
        for _ in 0..3 {
            serve_frame_roundtrip(&rt, &mut frames);
            serve_roundtrip(&rt, &mut ring);
        }
        let warm = rt.metrics();
        let window = Window::open();
        let mut nodes = 0;
        for _ in 0..8 {
            nodes += serve_frame_roundtrip(&rt, &mut frames);
            nodes += serve_roundtrip(&rt, &mut ring);
        }
        let delta = window.close();
        let snap = rt.metrics();
        rt.shutdown();
        let misses = snap.prep_cache_misses - warm.prep_cache_misses;
        let hits = snap.prep_cache_hits - warm.prep_cache_hits;
        assert_eq!(misses, 8 * (3 * 8 + 4), "{label}: misses in the window");
        assert_eq!(hits, 8 * 3 * 8, "{label}: hits in the window");
        assert!(nodes > 10_000, "{label}: search too small: {nodes}");
        assert_eq!(
            delta, 0,
            "{delta} allocations across 48 frames and 32 vectors on the {label} \
             tier ({nodes} nodes): the steady-state frame path allocates"
        );
    }
}

/// One burst: pause the worker, submit every request of `slots` in id
/// order, release the worker, and collect and recycle every response back
/// into its slot. Returns the nodes generated.
fn serve_burst(
    rt: &sd_serve::ServeRuntime,
    slots: &mut [Option<sd_serve::DetectionRequest>],
) -> u64 {
    rt.pause();
    for slot in slots.iter_mut() {
        rt.submit(slot.take().expect("every request is back"))
            .expect("the queue holds the burst");
    }
    rt.resume();
    let mut nodes = 0;
    for _ in 0..slots.len() {
        let resp = rt
            .collect_timeout(std::time::Duration::from_secs(10))
            .expect("runtime stalled");
        nodes += resp.detection.stats.nodes_generated;
        let id = resp.request.id as usize;
        slots[id] = Some(rt.recycle(resp));
    }
    nodes
}

#[test]
fn served_runs_steady_state_is_allocation_free() {
    let _g = serialized();
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sd_serve::{default_registry, DetectionRequest, LadderConfig, ServeConfig, ServeRuntime};
    use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};
    use std::time::Duration;
    // A burst of 16 vectors on three channels, drained as one batch:
    // runs of 5, 5, 3 and 3 vectors, the third on the first run's
    // channel. Through a two-entry prep cache the runs both hit and miss,
    // on the exact tier (per-vector search) and on a fusable one (fused
    // block search), and the steady state must not allocate.
    let ladder = LadderConfig {
        enabled: false,
        kbest_k: 16,
        anytime: false,
    };
    let c = Constellation::new(Modulation::Qam16);
    let burst = || {
        let mut rng = StdRng::seed_from_u64(0xB0257);
        let sigma2 = noise_variance(14.0, 8);
        let channels: Vec<FrameData> = (0..3)
            .map(|_| FrameData::generate(8, 8, &c, sigma2, &mut rng))
            .collect();
        [(0, 5), (1, 5), (0, 3), (2, 3)]
            .into_iter()
            .flat_map(|(ch, len)| std::iter::repeat_n(ch, len))
            .enumerate()
            .map(|(id, ch)| {
                let draw = FrameData::generate(8, 8, &c, sigma2, &mut rng);
                let frame = FrameData {
                    h: channels[ch].h.clone(),
                    ..draw
                };
                Some(DetectionRequest::new(
                    id as u64,
                    frame,
                    14.0,
                    Duration::from_secs(1),
                ))
            })
            .collect::<Vec<_>>()
    };
    for (tier, label) in [(0, "exact"), (1, "k-best")] {
        let rt = ServeRuntime::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(16)
                .with_ladder(ladder)
                .with_prep_cache(2),
            vec![default_registry(&c, &ladder).remove(tier)],
        );
        let mut slots = burst();
        for _ in 0..3 {
            serve_burst(&rt, &mut slots);
        }
        let warm = rt.metrics();
        let window = Window::open();
        let mut nodes = 0;
        for _ in 0..8 {
            nodes += serve_burst(&rt, &mut slots);
        }
        let delta = window.close();
        let snap = rt.metrics();
        rt.shutdown();
        assert_eq!(
            snap.run_vectors - warm.run_vectors,
            8 * 16,
            "{label}: every vector is served in a run"
        );
        assert!(snap.prep_cache_hits > warm.prep_cache_hits, "{label}: hits");
        assert!(
            snap.prep_cache_misses > warm.prep_cache_misses,
            "{label}: misses"
        );
        assert!(nodes > 10_000, "{label}: search too small: {nodes}");
        assert_eq!(
            delta, 0,
            "{delta} allocations across 128 vectors served in runs on the {label} \
             tier ({nodes} nodes): the steady-state run path allocates"
        );
    }
}
