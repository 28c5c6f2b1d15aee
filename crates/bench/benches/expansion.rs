//! Node-expansion and end-to-end before/after benchmarks for the arena +
//! batched-GEMM refactoring (ISSUE 1) and the subtree-parallel exact
//! decoder (ISSUE 5).
//!
//! "Before" is the seed formulation preserved in [`sd_core::reference`]:
//! every open node owns a `Vec<usize>` path (cloned per expansion) and
//! children are evaluated per node with a scalar-shaped GEMM. "After" is
//! the arena workspace: parent-linked nodes, suffix gathered straight from
//! the slab, and one seeded accumulate-GEMM per level — `E += A' × S`
//! with `S` in compressed broadcast form (`k × B`, each suffix symbol
//! spanning its node's `P` child columns) — for a whole batch of open
//! nodes.
//!
//! Unlike the other benches this one has a hand-rolled `main`: after the
//! measurements it serializes every result — plus the derived
//! before/after speedups — to `BENCH_expansion.json` in the repo root.

use criterion::{BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::arena::{NodeArena, NIL};
use sd_core::pd::{eval_children, eval_children_batch, PdScratch};
use sd_core::preprocess::{preprocess, BlockPrep, PrepScratch, Prepared};
use sd_core::reference::{dfs_reference, kbest_reference};
use sd_core::{
    decode_block_budgeted_into, decode_block_fused_into, DecodeBudget, Detection, EvalStrategy,
    FixedComplexitySd, KBestSd, MetricKind, ParallelSphereDecoder, PreparedDetector, QuantizedFsd,
    QuantizedKBestSd, SearchWorkspace, SphereDecoder,
};
use sd_math::fixed::{COEF_TARGET, SYM_QMAX, Y_CLAMP};
use sd_math::{fx_expand_level_multi, fx_metric_update, GemmAlgo};
use sd_wireless::{noise_variance, Constellation, FrameData, Modulation};

/// The paper's operating point: 16×16 antennas, 16-QAM.
const N_TX: usize = 16;
const MOD: Modulation = Modulation::Qam16;
/// Open nodes expanded together in the throughput benchmark.
const BATCH: usize = 256;
/// Tree depth of the expanded batch (mid-tree, so suffixes are non-trivial).
const DEPTH: usize = 8;

fn problem(seed: u64, snr_db: f64) -> (Constellation, Prepared<f64>, FrameData) {
    let c = Constellation::new(MOD);
    let sigma2 = noise_variance(snr_db, N_TX);
    let mut rng = StdRng::seed_from_u64(seed);
    let f = FrameData::generate(N_TX, N_TX, &c, sigma2, &mut rng);
    let prep = preprocess::<f64>(&f, &c);
    (c, prep, f)
}

/// A batch of `BATCH` random open nodes at depth `DEPTH`, in both
/// representations: arena ids and owned path vectors.
fn open_nodes(prep: &Prepared<f64>) -> (NodeArena, Vec<u32>, Vec<Vec<usize>>) {
    let p = prep.order;
    let mut rng = StdRng::seed_from_u64(0x5DC0DE);
    let mut arena = NodeArena::new();
    let mut ids = Vec::with_capacity(BATCH);
    let mut paths = Vec::with_capacity(BATCH);
    for _ in 0..BATCH {
        let path: Vec<usize> = (0..DEPTH).map(|_| rng.gen_range(0..p)).collect();
        let mut id = NIL;
        for &sym in &path {
            id = arena.alloc(id, sym);
        }
        ids.push(id);
        paths.push(path);
    }
    (arena, ids, paths)
}

/// Children-per-second of one full batch expansion, before vs after.
fn bench_node_expansion(c: &mut Criterion) {
    let (_, prep, _) = problem(1, 22.0);
    let (arena, ids, paths) = open_nodes(&prep);
    let p = prep.order;

    let mut group = c.benchmark_group("expansion_16x16_qam16");
    group.sample_size(30);
    group.throughput(Throughput::Elements((BATCH * p) as u64));

    // Before: the seed expansion — clone the node's path off the open
    // list, then a per-node scalar-shaped GEMM evaluation.
    let mut scratch = PdScratch::new(p, N_TX);
    group.bench_function(BenchmarkId::new("per_node_path_clone", BATCH), |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for path in &paths {
                let owned = path.clone();
                eval_children(&prep, &owned, EvalStrategy::Gemm, &mut scratch);
                acc += scratch.increments[0];
            }
            acc
        });
    });

    // After: one batched GEMM over all open nodes, suffixes gathered from
    // the arena slab.
    for (name, algo) in [
        ("batched_gemm_blocked", GemmAlgo::Blocked),
        ("batched_gemm_parallel", GemmAlgo::Parallel),
    ] {
        group.bench_function(BenchmarkId::new(name, BATCH), |b| {
            b.iter(|| {
                eval_children_batch(&prep, &arena, &ids, algo, &mut scratch);
                scratch.batch_increments[0]
            });
        });
    }

    // The fixed-point kernel on the same shape: one level's broadcast
    // suffix-MAC + per-child metric update for the whole batch, on
    // i16/i32 lanes instead of f64 (`fx_expand_level_multi`, every node
    // on one ŷ).
    let mut rng = StdRng::seed_from_u64(0x5DC0DE);
    let a_re: Vec<i16> = (0..DEPTH).map(|_| rng.gen_range(-2047..=2047)).collect();
    let a_im: Vec<i16> = (0..DEPTH).map(|_| rng.gen_range(-2047..=2047)).collect();
    let coef = COEF_TARGET as i32;
    let sym = SYM_QMAX as i16;
    let plane = |rng: &mut StdRng| -> Vec<i16> {
        (0..DEPTH * BATCH)
            .map(|_| rng.gen_range(-sym..=sym))
            .collect()
    };
    let (s_re, s_im) = (plane(&mut rng), plane(&mut rng));
    let seed_plane = |rng: &mut StdRng| -> Vec<i32> {
        (0..p)
            .map(|_| rng.gen_range(-coef * SYM_QMAX..=coef * SYM_QMAX))
            .collect()
    };
    let (seed_re, seed_im) = (seed_plane(&mut rng), seed_plane(&mut rng));
    let (y_re, y_im) = (vec![77_000; BATCH], vec![-42_000; BATCH]);
    let (mut w_re, mut w_im) = (vec![0i32; BATCH], vec![0i32; BATCH]);
    let mut out = vec![0i64; BATCH * p];
    group.bench_function(BenchmarkId::new("fixed_i16", BATCH), |b| {
        b.iter(|| {
            fx_expand_level_multi(
                &a_re,
                &a_im,
                &s_re,
                &s_im,
                BATCH,
                &y_re,
                &y_im,
                &seed_re,
                &seed_im,
                MetricKind::L2,
                &mut w_re,
                &mut w_im,
                &mut out,
            );
            out[0]
        });
    });
    group.finish();

    // The per-level metric update alone, per norm: the ℓ∞ variant trades
    // the two squaring multiplies for two abs/max pairs.
    let mut group = c.benchmark_group("metric_update");
    group.sample_size(30);
    group.throughput(Throughput::Elements((BATCH * p) as u64));
    let res: Vec<i32> = (0..BATCH * p)
        .map(|_| rng.gen_range(-(Y_CLAMP / 2)..=Y_CLAMP / 2))
        .collect();
    let res_im: Vec<i32> = (0..BATCH * p)
        .map(|_| rng.gen_range(-(Y_CLAMP / 2)..=Y_CLAMP / 2))
        .collect();
    for (name, metric) in [("l2", MetricKind::L2), ("linf", MetricKind::LInf)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                fx_metric_update(9_999, -7_777, &res, &res_im, metric, &mut out);
                out[0]
            });
        });
    }
    group.finish();
}

/// The fused-block operating point (ISSUE 10): the frame-serving link —
/// 8×8 antennas, 4-QAM — with a 16-wide coherence block.
const FUSE_N: usize = 8;
const FUSE_BLOCK: usize = 16;
const FUSE_K: usize = 16;

/// One coherence block: `FUSE_BLOCK` receive vectors through a single
/// channel draw (fresh transmit + noise per subcarrier).
fn coherent_block(snr_db: f64) -> (Constellation, Vec<FrameData>) {
    let c = Constellation::new(Modulation::Qam4);
    let sigma2 = noise_variance(snr_db, FUSE_N);
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let base = FrameData::generate(FUSE_N, FUSE_N, &c, sigma2, &mut rng);
    let frames = (0..FUSE_BLOCK)
        .map(|_| {
            let mut f = base.clone();
            let fresh = FrameData::generate(FUSE_N, FUSE_N, &c, sigma2, &mut rng);
            f.y = fresh.y;
            f.tx = fresh.tx;
            f
        })
        .collect();
    (c, frames)
}

/// Fused block decode vs the per-subcarrier loop over the same shared
/// preparation: identical answers (pinned by `tests/block_fused.rs`), so
/// the only difference timed here is B searches of k×K GEMMs against one
/// search of k×B·K GEMMs per level.
fn bench_block_fused(c: &mut Criterion) {
    let (constellation, frames) = coherent_block(30.0);
    let engines: Vec<(&str, Box<dyn PreparedDetector<f64>>)> = vec![
        (
            "kbest16",
            Box::new(KBestSd::<f64>::new(constellation.clone(), FUSE_K)),
        ),
        (
            "kbest16_fx",
            Box::new(QuantizedKBestSd::new(constellation.clone(), FUSE_K)),
        ),
        (
            "fsd_fx_linf",
            Box::new(QuantizedFsd::new(constellation.clone()).with_metric(MetricKind::LInf)),
        ),
    ];
    let mut scratch = PrepScratch::new();
    let mut block = BlockPrep::new();
    let mut prep = Prepared::empty();
    let mut ws = SearchWorkspace::new();
    let mut out = vec![Detection::default(); FUSE_BLOCK];

    let mut group = c.benchmark_group("block_fused_8x8_qam4");
    group.sample_size(30);
    group.throughput(Throughput::Elements(FUSE_BLOCK as u64));
    for (name, det) in &engines {
        // Outside the timed region: this engine must actually fuse.
        let (_, fused) = decode_block_fused_into(
            det.as_ref(),
            &frames,
            &DecodeBudget::UNLIMITED,
            &mut scratch,
            &mut block,
            &mut prep,
            &mut ws,
            &mut out,
        );
        assert!(fused, "{name} must take the fused path");
        group.bench_function(format!("{name}/loop"), |b| {
            b.iter(|| {
                decode_block_budgeted_into(
                    det.as_ref(),
                    &frames,
                    &DecodeBudget::UNLIMITED,
                    &mut scratch,
                    &mut block,
                    &mut prep,
                    &mut ws,
                    &mut out,
                );
                out[0].indices[0]
            });
        });
        group.bench_function(format!("{name}/fused"), |b| {
            b.iter(|| {
                decode_block_fused_into(
                    det.as_ref(),
                    &frames,
                    &DecodeBudget::UNLIMITED,
                    &mut scratch,
                    &mut block,
                    &mut prep,
                    &mut ws,
                    &mut out,
                );
                out[0].indices[0]
            });
        });
    }
    group.finish();
}

/// End-to-end decode latency at the paper's operating point.
fn bench_end_to_end(c: &mut Criterion) {
    let frames: Vec<Prepared<f64>> = (0..8).map(|i| problem(10 + i, 22.0).1).collect();
    let constellation = Constellation::new(MOD);

    let mut group = c.benchmark_group("decode_16x16_qam16");
    group.sample_size(20);
    group.throughput(Throughput::Elements(frames.len() as u64));

    let sd: SphereDecoder<f64> = SphereDecoder::new(constellation.clone());
    let mut ws = SearchWorkspace::new();
    group.bench_function("dfs/reference", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| dfs_reference(p, f64::INFINITY, EvalStrategy::Gemm, true).indices[0])
                .sum::<usize>()
        });
    });
    group.bench_function("dfs/arena_workspace", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| sd.detect_prepared_in(p, f64::INFINITY, &mut ws).indices[0])
                .sum::<usize>()
        });
    });

    // The tentpole engine: top-L subtrees fanned over a persistent worker
    // pool pruning against one shared atomic radius. Same frames, same
    // exact answer — only the wall clock moves.
    let mut out = sd_core::Detection::default();
    for workers in [2usize, 4, 8] {
        let par: ParallelSphereDecoder<f64> =
            ParallelSphereDecoder::new(constellation.clone()).with_workers(workers);
        group.bench_function(format!("dfs/parallel{workers}"), |b| {
            b.iter(|| {
                frames
                    .iter()
                    .map(|p| {
                        par.detect_prepared_into(p, f64::INFINITY, &mut ws, &mut out);
                        out.indices[0]
                    })
                    .sum::<usize>()
            });
        });
    }

    let kb: KBestSd<f64> = KBestSd::new(constellation.clone(), 32);
    group.bench_function("kbest32/reference", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| kbest_reference(p, 32).indices[0])
                .sum::<usize>()
        });
    });
    group.bench_function("kbest32/arena_batched", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| kb.detect_prepared_in(p, f64::INFINITY, &mut ws).indices[0])
                .sum::<usize>()
        });
    });

    // The quantized rungs: the same sweeps on i16/i32 kernels.
    let kb_fx = QuantizedKBestSd::new(constellation.clone(), 32);
    group.bench_function("kbest32/fixed_i16", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| kb_fx.detect_prepared_in(p, f64::INFINITY, &mut ws).indices[0])
                .sum::<usize>()
        });
    });
    let fsd: FixedComplexitySd<f64> = FixedComplexitySd::new(constellation.clone());
    group.bench_function("fsd1/float", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| fsd.detect_prepared_in(p, f64::INFINITY, &mut ws).indices[0])
                .sum::<usize>()
        });
    });
    let fsd_fx = QuantizedFsd::new(constellation).with_metric(MetricKind::LInf);
    group.bench_function("fsd1/fixed_i16_linf", |b| {
        b.iter(|| {
            frames
                .iter()
                .map(|p| fsd_fx.detect_prepared_in(p, f64::INFINITY, &mut ws).indices[0])
                .sum::<usize>()
        });
    });
    group.finish();
}

/// ns/iter of the result whose id contains `needle`.
fn find(c: &Criterion, needle: &str) -> f64 {
    c.results()
        .iter()
        .find(|r| r.id.contains(needle))
        .unwrap_or_else(|| panic!("no bench result matching {needle:?}"))
        .ns_per_iter
}

fn main() {
    let mut c = Criterion::new();
    bench_node_expansion(&mut c);
    bench_block_fused(&mut c);
    bench_end_to_end(&mut c);

    let before = find(&c, "per_node_path_clone");
    let after_blocked = find(&c, "batched_gemm_blocked");
    let after_parallel = find(&c, "batched_gemm_parallel");
    let e2e_reference = find(&c, "dfs/reference");
    let e2e_sequential = find(&c, "dfs/arena_workspace");
    let kb_before = find(&c, "kbest32/reference");
    let kb_after = find(&c, "kbest32/arena_batched");
    let kb_fixed = find(&c, "kbest32/fixed_i16");
    let fsd_float = find(&c, "fsd1/float");
    let fsd_fixed = find(&c, "fsd1/fixed_i16_linf");
    let (par_workers, par_ns) = [2usize, 4, 8]
        .map(|w| (w, find(&c, &format!("dfs/parallel{w}"))))
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let fuse = |engine: &str| {
        let loop_ns = find(&c, &format!("{engine}/loop"));
        let fused_ns = find(&c, &format!("{engine}/fused"));
        (loop_ns, fused_ns, loop_ns / fused_ns)
    };
    let fuse_kb = fuse("kbest16");
    let fuse_kb_fx = fuse("kbest16_fx");
    let fuse_fsd = fuse("fsd_fx_linf");

    let children = (BATCH * 16) as f64;
    // Record how many cores this run actually had so the numbers are
    // interpretable (on 1 core the parallel fan-out can only cost, never
    // pay). Every row carries it, and a worker count above it is flagged.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            let mut extra = format!(", \"host_cores\": {cores}");
            let workers =
                r.id.rsplit_once("parallel")
                    .map(|(_, w)| w.parse::<usize>());
            if let Some(Ok(w)) = workers {
                extra += &format!(", \"oversubscribed\": {}", w > cores);
            }
            format!(
                "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}{extra}}}",
                r.id, r.ns_per_iter
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"n_tx\": {N_TX}, \"modulation\": \"QAM16\", \"batch\": {BATCH}, \
         \"depth\": {DEPTH}, \"seed\": \"0x5DC0DE\", \"host_cores\": {cores}}},\n  \"results\": [\n{}\n  ],\n  \
         \"node_expansion\": {{\n    \
         \"before_children_per_sec\": {:.0},\n    \
         \"after_blocked_children_per_sec\": {:.0},\n    \
         \"after_parallel_children_per_sec\": {:.0},\n    \
         \"speedup_blocked\": {:.2},\n    \
         \"speedup_parallel\": {:.2}\n  }},\n  \
         \"end_to_end_dfs\": {{\"reference_ns\": {:.0}, \"before_ns\": {:.0}, \
         \"after_ns\": {:.0}, \"workers\": {}, \"speedup\": {:.2}, \"host_cores\": {cores}}},\n  \
         \"end_to_end_kbest32\": {{\"before_ns\": {:.0}, \"after_ns\": {:.0}, \"speedup\": {:.2}}},\n  \
         \"quantized\": {{\"kbest32_float_ns\": {:.0}, \"kbest32_fixed_ns\": {:.0}, \
         \"kbest32_speedup\": {:.2}, \"fsd1_float_ns\": {:.0}, \"fsd1_fixed_linf_ns\": {:.0}, \
         \"fsd1_speedup\": {:.2}}},\n  \
         \"block_fused\": {{\"workload\": \"8x8 QAM4 @ 30 dB, coherence block {FUSE_BLOCK}\", \
         \"k\": {FUSE_K},\n    \
         \"kbest16\": {{\"loop_ns\": {:.0}, \"fused_ns\": {:.0}, \"speedup\": {:.2}}},\n    \
         \"kbest16_fx\": {{\"loop_ns\": {:.0}, \"fused_ns\": {:.0}, \"speedup\": {:.2}}},\n    \
         \"fsd_fx_linf\": {{\"loop_ns\": {:.0}, \"fused_ns\": {:.0}, \"speedup\": {:.2}}}\n  }}\n}}\n",
        rows.join(",\n"),
        children * 1e9 / before,
        children * 1e9 / after_blocked,
        children * 1e9 / after_parallel,
        before / after_blocked,
        before / after_parallel,
        e2e_reference,
        e2e_sequential,
        par_ns,
        par_workers,
        e2e_sequential / par_ns,
        kb_before,
        kb_after,
        kb_before / kb_after,
        kb_after,
        kb_fixed,
        kb_after / kb_fixed,
        fsd_float,
        fsd_fixed,
        fsd_float / fsd_fixed,
        fuse_kb.0,
        fuse_kb.1,
        fuse_kb.2,
        fuse_kb_fx.0,
        fuse_kb_fx.1,
        fuse_kb_fx.2,
        fuse_fsd.0,
        fuse_fsd.1,
        fuse_fsd.2,
    );

    // Walk up from the bench crate to the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = root.join("BENCH_expansion.json");
    std::fs::write(&out, &json).expect("write BENCH_expansion.json");
    eprintln!("wrote {}", out.display());
    eprintln!(
        "node expansion speedup: blocked {:.2}x, parallel {:.2}x",
        before / after_blocked,
        before / after_parallel
    );
    eprintln!(
        "end-to-end DFS: sequential {:.1} ms -> parallel{} {:.1} ms ({:.2}x)",
        e2e_sequential / 1e6,
        par_workers,
        par_ns / 1e6,
        e2e_sequential / par_ns
    );
    eprintln!(
        "fused block ({FUSE_BLOCK}x 8x8 QAM4): kbest16 {:.2}x, kbest16_fx {:.2}x, \
         fsd_fx_linf {:.2}x over the per-subcarrier loop",
        fuse_kb.2, fuse_kb_fx.2, fuse_fsd.2
    );
    eprintln!(
        "quantized: kbest32 {:.2} ms -> {:.2} ms ({:.2}x), fsd1 {:.2} ms -> {:.2} ms ({:.2}x)",
        kb_after / 1e6,
        kb_fixed / 1e6,
        kb_after / kb_fixed,
        fsd_float / 1e6,
        fsd_fixed / 1e6,
        fsd_float / fsd_fixed
    );
}
