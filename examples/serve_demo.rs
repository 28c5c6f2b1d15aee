//! Serve demo: run the deadline-aware detection runtime under a paced
//! closed-loop load and watch the degradation ladder defend the paper's
//! 10 ms real-time line.
//!
//! ```text
//! cargo run --release --example serve_demo            # full demo
//! cargo run --release --example serve_demo -- --smoke # tiny CI smoke run
//! ```
//!
//! Both modes finish by rendering the final [`sd_serve::MetricsSnapshot`]
//! through the export surfaces — Prometheus text exposition and a JSON
//! line — and the smoke mode self-checks the JSON with
//! [`sd_serve::validate_json`], exiting non-zero on any violation.

use sd_core::SphereDecoder;
use sd_serve::{
    build_requests, json_line, prometheus_text, run_frame_load, run_load, validate_json,
    ExportFormat, FrameLoadConfig, FrameLoadReport, LadderConfig, LoadConfig, LoadReport,
    MetricsSnapshot, RejectReason, ServeConfig, ServeRuntime, Tier, TierCostClass,
};
use sd_wireless::{Constellation, GridConfig, Modulation, REAL_TIME_BUDGET};
use std::time::Duration;

fn show(label: &str, r: &LoadReport) {
    println!("-- {label} --");
    println!(
        "  offered {} | served {} | shed {} | throughput {:.0}/s",
        r.offered, r.served, r.shed, r.throughput_hz
    );
    println!(
        "  latency p50 {:.0} us, p99 {:.0} us | deadline misses {:.1}%",
        r.p50_latency_us,
        r.p99_latency_us,
        100.0 * r.deadline_miss_rate
    );
    let tiers: Vec<String> = r
        .tiers
        .iter()
        .map(|(label, n)| format!("{label}={n}"))
        .collect();
    println!(
        "  tiers {} | BER {:.2e} | mean batch {:.1}",
        tiers.join(" "),
        r.ber(),
        r.snapshot.mean_batch_size
    );
    // Cost-model validation: how far the EWMA prediction the ladder acted
    // on was from the decode time actually measured, per tier.
    for t in &r.snapshot.tiers {
        if t.served > 0 {
            println!(
                "  cost model [{}]: |predicted - actual| p50 {:.0} us, p99 {:.0} us over {} decodes",
                t.label, t.p50_predict_err_us, t.p99_predict_err_us, t.served
            );
        }
    }
    println!(
        "  search: {} nodes generated across served requests\n",
        r.stats.nodes_generated
    );
}

fn show_frames(label: &str, r: &FrameLoadReport) {
    println!("-- {label} --");
    println!(
        "  frames offered {} | served {} | shed {} | {:.0} subcarriers/s",
        r.offered_frames, r.served_frames, r.shed_frames, r.throughput_hz
    );
    println!(
        "  frame latency p50 {:.0} us, p99 {:.0} us | {} QRs for {} subcarriers \
         ({:.1}x amortization) | BER {:.2e}\n",
        r.p50_latency_us,
        r.p99_latency_us,
        r.prep_factors,
        r.subcarriers,
        r.prep_amortization(),
        r.ber()
    );
}

fn show_exports(snapshot: &MetricsSnapshot) {
    println!("-- metrics export: Prometheus text exposition --");
    print!("{}", prometheus_text(snapshot));
    println!("\n-- metrics export: JSON line --");
    println!("{}", json_line(snapshot));
}

/// Tiny deterministic run for CI: exercise the runtime end to end,
/// render both export formats, and machine-check the JSON line. Any
/// violated invariant panics, so the process exits non-zero on failure.
fn smoke() {
    let cfg = LoadConfig {
        n_tx: 4,
        n_rx: 4,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![8.0, 12.0],
        n_requests: 64,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0x5340CE,
    };
    let c = Constellation::new(cfg.modulation);
    // The periodic reporter emits JSON lines on stderr while the run is
    // live; stdout stays reserved for the validated final snapshot. Two
    // shards with stealing on, so the smoke exercises the sharded
    // topology and its per-shard export rows end to end.
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(2)
            .with_shards(2)
            .with_queue_capacity(2 * cfg.n_requests)
            .with_reporter(Duration::from_millis(20), ExportFormat::JsonLines),
        c.clone(),
    );
    let report = run_load(&rt, &cfg, &c);
    let (snapshot, _, _) = rt.shutdown();

    show("smoke run (4x4 QAM4, 64 requests, 2 shards)", &report);
    show_exports(&snapshot);

    assert_eq!(report.served, cfg.n_requests as u64, "smoke must serve all");
    let line = json_line(&snapshot);
    validate_json(&line).expect("JSON export must parse");
    assert!(
        snapshot.deadline_missed <= snapshot.served,
        "missed ({}) must never exceed served ({})",
        snapshot.deadline_missed,
        snapshot.served
    );
    // Shard topology invariants: the export must carry one row per shard
    // and the per-shard counters must partition the global ones.
    assert_eq!(snapshot.n_shards, 2, "smoke runs the sharded topology");
    assert_eq!(snapshot.shards.len(), 2);
    assert!(snapshot.host_cores >= 1, "host cores recorded");
    let routed: u64 = snapshot.shards.iter().map(|s| s.routed).sum();
    let shard_served: u64 = snapshot.shards.iter().map(|s| s.served).sum();
    assert_eq!(routed, snapshot.accepted, "routing partitions admission");
    assert_eq!(shard_served, snapshot.served, "shards partition serving");
    // Reactive serving never issues a decode budget, so the quality rows
    // must read all-exact here.
    assert_eq!(
        snapshot.quality_exact + snapshot.budget_exhausted,
        snapshot.served,
        "quality counters must close over served requests"
    );
    for needle in [
        "\"host_cores\":",
        "\"n_shards\":2",
        "\"shards\":[{",
        "\"quality_exact\":",
        "\"budget_exhausted\":0",
    ] {
        assert!(line.contains(needle), "JSON export missing {needle}");
    }
    let prom = prometheus_text(&snapshot);
    for needle in [
        "sd_serve_served_total",
        "sd_serve_deadline_miss_rate",
        "sd_serve_tier_served_total{tier=",
        "sd_serve_tier_predict_err_us{tier=",
        "sd_serve_host_cores",
        "sd_serve_n_shards 2",
        "sd_serve_shard_routed_total{shard=\"0\"}",
        "sd_serve_shard_routed_total{shard=\"1\"}",
        "sd_serve_shard_served_total{shard=\"0\"}",
        "sd_serve_shard_prep_hits_total{shard=\"0\"}",
        "sd_serve_shard_queue_depth{shard=\"1\"}",
        "sd_serve_quality_exact_total",
        "sd_serve_budget_exhausted_total 0",
    ] {
        assert!(prom.contains(needle), "Prometheus export missing {needle}");
    }
    println!(
        "smoke OK: {} served across {} shards, exports validated",
        snapshot.served, snapshot.n_shards
    );

    // Second pass: the frame path. A small resource grid served as
    // whole-frame requests, with the frame rows of both exports
    // machine-checked the same way.
    let fcfg = FrameLoadConfig {
        grid: GridConfig::new(16, 4, 4, 4)
            .with_coherence(8, 2)
            .with_snr(12.0, 2.0),
        modulation: Modulation::Qam4,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0x5340CF,
    };
    let c = Constellation::new(fcfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(8),
        c.clone(),
    );
    let report = run_frame_load(&rt, &fcfg, &c);
    let (snapshot, _, _) = rt.shutdown();

    show_frames("frame smoke run (16x4 grid, 4x4 QAM4)", &report);
    show_exports(&snapshot);

    assert_eq!(
        report.served_frames, report.offered_frames,
        "frame smoke must serve every frame"
    );
    assert_eq!(snapshot.frames_served, report.served_frames);
    assert_eq!(snapshot.served, report.subcarriers);
    assert_eq!(snapshot.prep_factors, report.prep_factors);
    assert!(
        snapshot.prep_amortization >= 1.0,
        "coherence blocks must amortize preparation (got {})",
        snapshot.prep_amortization
    );
    assert_eq!(
        snapshot.prep_cache_hits + snapshot.prep_cache_misses + snapshot.prep_cache_bypass,
        snapshot.served,
        "prep accounting must close over frame traffic"
    );
    // Frames feed the one latency histogram, one sample per frame.
    assert!(snapshot.p99_latency_us > 0.0, "frame latency recorded");
    let line = json_line(&snapshot);
    validate_json(&line).expect("frame JSON export must parse");
    for needle in [
        "\"frames_served\":".to_string(),
        "\"prep_amortization\":".to_string(),
        format!("\"prep_factors\":{}", snapshot.prep_factors),
        format!("\"p99_latency_us\":{}", snapshot.p99_latency_us),
    ] {
        assert!(line.contains(&needle), "JSON export missing {needle}");
    }
    let prom = prometheus_text(&snapshot);
    for needle in [
        "sd_serve_frames_served_total".to_string(),
        "sd_serve_prep_amortization".to_string(),
        format!("sd_serve_prep_factors_total {}", snapshot.prep_factors),
        format!(
            "sd_serve_latency_us{{quantile=\"0.99\"}} {}",
            snapshot.p99_latency_us
        ),
    ] {
        assert!(prom.contains(&needle), "Prometheus export missing {needle}");
    }
    println!(
        "frame smoke OK: {} frames / {} subcarriers served, {} factorizations, exports validated",
        snapshot.frames_served, snapshot.served, snapshot.prep_factors
    );

    // Third pass: the anytime ladder under already-expired deadlines.
    // Every decode trips its wall-clock backstop and returns a flagged
    // best-so-far answer, so this exercises the truncation path end to
    // end and machine-checks the quality rows of both export formats
    // while they are nonzero.
    let acfg = LoadConfig {
        deadline: Duration::ZERO,
        n_requests: 32,
        seed: 0x5340D0,
        ..cfg
    };
    let c = Constellation::new(acfg.modulation);
    let rt = ServeRuntime::start_with_registry(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(2 * acfg.n_requests)
            .with_ladder(LadderConfig {
                enabled: true,
                kbest_k: 16,
                anytime: true,
            }),
        vec![Tier::new(
            "exact",
            TierCostClass::Adaptive,
            Box::new(SphereDecoder::<f64>::new(c.clone())),
        )],
    );
    let report = run_load(&rt, &acfg, &c);
    let (snapshot, _, _) = rt.shutdown();

    show(
        "anytime smoke run (expired deadlines, budgets trip)",
        &report,
    );
    show_exports(&snapshot);

    assert_eq!(
        report.served, acfg.n_requests as u64,
        "anytime smoke must serve (not shed) every request"
    );
    assert_eq!(
        snapshot.quality_exact + snapshot.budget_exhausted,
        snapshot.served,
        "quality counters must close over served requests"
    );
    assert!(
        snapshot.budget_exhausted > 0,
        "expired deadlines must truncate under the anytime ladder"
    );
    assert!(
        report.truncated_rate() > 0.0,
        "load report must surface the truncated fraction"
    );
    let line = json_line(&snapshot);
    validate_json(&line).expect("anytime JSON export must parse");
    for needle in [
        format!("\"quality_exact\":{}", snapshot.quality_exact),
        format!("\"budget_exhausted\":{}", snapshot.budget_exhausted),
    ] {
        assert!(line.contains(&needle), "JSON export missing {needle}");
    }
    let prom = prometheus_text(&snapshot);
    for needle in [
        format!("sd_serve_quality_exact_total {}", snapshot.quality_exact),
        format!(
            "sd_serve_budget_exhausted_total {}",
            snapshot.budget_exhausted
        ),
    ] {
        assert!(prom.contains(&needle), "Prometheus export missing {needle}");
    }
    println!(
        "anytime smoke OK: {}/{} truncated at the budget, quality counters close",
        snapshot.budget_exhausted, snapshot.served
    );

    // Fourth pass: predictive admission control. The gate prices each
    // queued item at the tier the ladder would run it on, and a doomed
    // (nanosecond-deadline) request runs on the floor tier, so the
    // warm-up trains both ends of the ladder: generous deadlines (the
    // exact tier, all admitted) and expired ones (the floor; once the
    // floor is priced the gate may shed some of these too). Then freeze
    // the worker and offer doomed requests: all but the first must shed
    // as PredictedLate, and both export formats must carry the nonzero
    // predictive-shed rows.
    let pcfg = LoadConfig {
        n_requests: 32,
        seed: 0x5340D1,
        deadline: REAL_TIME_BUDGET,
        ..acfg
    };
    let c = Constellation::new(pcfg.modulation);
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(2 * pcfg.n_requests)
            .with_predictive_admission(true),
        c.clone(),
    );
    let report = run_load(&rt, &pcfg, &c);
    assert_eq!(
        report.served, pcfg.n_requests as u64,
        "generous deadlines must all be admitted and served"
    );
    let expired = LoadConfig {
        deadline: Duration::ZERO,
        ..pcfg.clone()
    };
    let report = run_load(&rt, &expired, &c);
    assert!(report.served > 0, "the floor tier serves expired requests");
    rt.pause();
    let mut shed = report.shed;
    for req in build_requests(
        &LoadConfig {
            deadline: Duration::from_nanos(1),
            ..pcfg.clone()
        },
        &c,
    ) {
        if let Err(rej) = rt.submit(req) {
            assert!(
                matches!(rej.reason, RejectReason::PredictedLate { .. }),
                "doomed requests shed on prediction, got {:?}",
                rej.reason
            );
            shed += 1;
        }
    }
    assert!(
        shed > report.shed,
        "the frozen backlog must trip the admission gate"
    );
    rt.resume();
    let (snapshot, _, _) = rt.shutdown();

    assert_eq!(snapshot.rejected_predicted, shed);
    let line = json_line(&snapshot);
    validate_json(&line).expect("predictive JSON export must parse");
    let needle = format!("\"rejected_predicted_late\":{shed}");
    assert!(line.contains(&needle), "JSON export missing {needle}");
    let prom = prometheus_text(&snapshot);
    let needle = format!("sd_serve_rejected_predicted_late_total {shed}");
    assert!(prom.contains(&needle), "Prometheus export missing {needle}");
    println!(
        "predictive smoke OK: {} doomed requests shed at admission, exports validated",
        shed - report.shed
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let base = LoadConfig {
        n_tx: 8,
        n_rx: 8,
        modulation: Modulation::Qam4,
        snr_grid_db: vec![6.0, 10.0, 14.0],
        n_requests: 3000,
        offered_rate_hz: 0.0,
        deadline: REAL_TIME_BUDGET,
        seed: 0xD3110,
    };
    let c = Constellation::new(base.modulation);
    println!(
        "== sd-serve demo: 8x8 QAM4, mixed SNR, {} ms deadline ==\n",
        REAL_TIME_BUDGET.as_millis()
    );

    // 1. Saturation probe: how fast can this host decode exactly?
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(base.n_requests)
            .with_ladder(LadderConfig {
                enabled: false,
                kbest_k: 16,
                anytime: false,
            }),
        c.clone(),
    );
    let probe = run_load(&rt, &base, &c);
    rt.shutdown();
    let cap_hz = probe.throughput_hz;
    show(
        &format!("saturation probe ({cap_hz:.0} exact decodes/s)"),
        &probe,
    );

    // 2. Overload at 2x capacity, bounded queue, ladder on: the runtime
    //    sheds what it must, degrades what it can, and keeps most served
    //    requests inside the deadline.
    let overload = LoadConfig {
        offered_rate_hz: 2.0 * cap_hz,
        ..base.clone()
    };
    let rt = ServeRuntime::start(
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(2048),
        c.clone(),
    );
    let report = run_load(&rt, &overload, &c);
    let (snapshot, _, _) = rt.shutdown();
    show("2x overload, degradation ladder on", &report);
    println!(
        "final runtime metrics: {} batches, p99 queue wait {:.0} us, rejected {} (full) / {} (shutdown)",
        snapshot.batches,
        snapshot.p99_queue_wait_us,
        snapshot.rejected_full,
        snapshot.rejected_shutdown
    );
    println!();
    show_exports(&snapshot);
}
