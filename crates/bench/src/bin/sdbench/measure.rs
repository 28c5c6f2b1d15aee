//! One measured run of one workload, in its own process:
//!
//! `sdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Phases: set-up (pool, sanity gate, runtime start; repeated), a warm-up
//! at the fixed rate (excluded), the measured fixed-rate open loop, a
//! warm-up and the measured closed-loop capacity phase with the ladder
//! disabled, the replay that checks the served decisions, and more timed
//! set-ups; `setup_s` is the median of all of them. Time-valued end-to-end
//! metrics count the program's work in reference time (see [`crate::host`]);
//! the detail line carries their wall-time values too. With `--trace 1` the same run also
//! records stage times and spans, and reports the per-layer metrics
//! instead of the end-to-end ones.
//!
//! The last line of standard output is the result object; the line before
//! it carries sample counts and run details for `sdbench run`.

use crate::generator::{closed_loop, open_loop, Generator, OpenOutcome, SampleBook, Stages};
use crate::host;
use crate::json;
use crate::metrics::{self, Metric, END_TO_END, PER_LAYER};
use crate::replay::{self, ReplayOutcome};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::workload::{self, Req, Workload, WORKLOADS};
use sd_serve::{DetectionResponse, FrameResponse, MetricsSnapshot};
use std::time::{Duration, Instant};

/// Requests kept in flight by the capacity phase's closed loop.
const OUTSTANDING: usize = 32;
/// Sampled requests whose spans a traced fixed-rate phase keeps.
const SPAN_TARGET: u64 = 8_192;
/// A served BER above this means the decoders are not working at all.
const BER_SANITY: f64 = 0.2;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Short warm-ups and one set-up at each end (`sdbench --smoke`).
    pub smoke: bool,
    /// Override the workload's fixed rate (requests/s), for one-off
    /// checks such as the deadline check at 0.9 × capacity.
    pub rate: Option<u64>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        rate: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => o.seconds = num(value()?)?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--rate" => o.rate = Some(num(value()?)?.max(1)),
            "--smoke" => o.smoke = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(1..=120).contains(&o.seconds) {
        return Err(format!("--seconds must be 1..=120, got {}", o.seconds));
    }
    Ok(o)
}

/// How a run splits its time.
struct Plan {
    /// Timed set-ups before the measured phases, and after them once the
    /// pool is dropped: their median samples the host's speed at both ends
    /// of the run, not just in its first second.
    setups_before: usize,
    setups_after: usize,
    warm: Duration,
    /// Measured one-second windows of the fixed-rate phase.
    fixed_secs: u64,
    cap_warm: Duration,
    cap: Duration,
}

impl Plan {
    /// `seconds` of measurement: 60% at the fixed rate, the rest capacity.
    fn new(seconds: u64, smoke: bool) -> Self {
        let fixed_secs = ((seconds * 6 + 5) / 10).max(1);
        let cap = Duration::from_secs(seconds.saturating_sub(fixed_secs).max(1));
        if smoke {
            Plan {
                setups_before: 1,
                setups_after: 1,
                warm: Duration::from_millis(250),
                fixed_secs,
                cap_warm: Duration::from_millis(250),
                cap,
            }
        } else {
            Plan {
                setups_before: 4,
                setups_after: 5,
                warm: Duration::from_secs(2),
                fixed_secs,
                cap_warm: Duration::from_secs(1),
                cap,
            }
        }
    }
}

/// One reported metric value with its sample count.
struct Value {
    metric: &'static Metric,
    value: f64,
    samples: u64,
}

struct Report {
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    values: Vec<Value>,
    /// `(key, JSON value)` pairs for the detail line.
    detail: Vec<(&'static str, String)>,
}

/// Entry point of a measured run; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sdbench: {e}");
            return 2;
        }
    };
    let Some(w) = workload::find(&opts.workload) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "sdbench: unknown workload `{}` (known: {})",
            opts.workload,
            known.join(", ")
        );
        return 2;
    };
    match measure(w, &opts) {
        Ok(report) => {
            print_report(w, &opts, &report);
            if report.correct {
                0
            } else {
                for p in &report.problems {
                    eprintln!("sdbench: check failed: {p}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("sdbench: {}: {e}", w.name);
            2
        }
    }
}

fn measure(w: &'static Workload, o: &Opts) -> Result<Report, String> {
    let host_cores = sd_serve::host_cores();
    // One generator thread (this one) plus nproc − 1 workers.
    let workers = host_cores.saturating_sub(1).max(1);
    let plan = Plan::new(o.seconds, o.smoke);
    let rate = o.rate.unwrap_or(w.rate_hz);
    let frames = w.is_frames();

    // One timed set-up: pool, sanity gate, runtime start, in reference
    // time by the host's speed before and after it. Repeated, each
    // copy is torn down before the next is timed, so only one pool is ever
    // resident.
    let (mut setup_s, mut setup_wall) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let before = host::speed();
        let t = Instant::now();
        let pool = w.build_pool(o.seed);
        let gate = workload::gate(w, &pool)?;
        let rt = w.start_runtime(workers, true);
        let wall = t.elapsed();
        setup_s.push(host::reference(wall, before, host::speed()));
        setup_wall.push(wall.as_secs_f64());
        Ok::<_, String>((rt, pool, gate))
    };
    let mut built = set_up()?;
    for _ in 1..plan.setups_before {
        let (rt, pool, _) = built;
        drop(pool);
        check_drained(rt.shutdown())?;
        built = set_up()?;
    }
    let (rt, pool, gate) = built;
    let mut pool: Vec<Option<Req>> = pool.into_iter().map(Some).collect();
    let mut book = SampleBook::new(replay::sample_slots(w, pool.len()));
    let mut tracer = o.trace.then(|| Tracer::new(Instant::now()));
    let vectors_per_request = w.vectors_per_request() as u64;
    let bits_per_vector = (w.n_tx * workload::constellation().bits_per_symbol()) as u64;
    let span_every = (rate * plan.fixed_secs / SPAN_TARGET).max(1);

    // Fixed-rate open loop.
    let (mut open, stages, mut violations) = {
        let mut d = Generator::new(&rt, frames, &mut pool, &mut book);
        d.tracer = tracer.as_mut();
        d.tracing = o.trace;
        d.span_every = span_every;
        let out = open_loop(
            &mut d,
            rate,
            plan.warm,
            plan.fixed_secs,
            vectors_per_request,
            bits_per_vector,
        )?;
        (out, std::mem::take(&mut d.stages), d.stage_violations)
    };
    check_drained(rt.shutdown())?;
    let next_k = open.next_k;

    // Capacity: closed loop, ladder disabled. A traced run alternates
    // traced and untraced slices, for the tracing overhead.
    let cap_rt = w.start_runtime(workers, false);
    let cap = {
        let mut d = Generator::new(&cap_rt, frames, &mut pool, &mut book);
        d.tracer = tracer.as_mut();
        d.span_every = span_every;
        d.record_from = next_k;
        let cap = closed_loop(&mut d, OUTSTANDING, next_k, plan.cap_warm, plan.cap)?;
        violations += d.stage_violations;
        cap
    };
    check_drained(cap_rt.shutdown())?;

    // Replay: the correctness check, and the per-layer profile.
    let pool: Vec<Req> = pool
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a pooled request never came back")?;
    let rep = replay::replay(w, &pool, &book, &w.registry(), tracer.as_mut());
    drop(pool);
    for _ in 0..plan.setups_after {
        let (rt, pool, _) = set_up()?;
        drop(pool);
        check_drained(rt.shutdown())?;
    }
    eprintln!("sdbench: set-up times (reference s): {setup_s:.4?}");
    eprintln!("sdbench: set-up times (wall s): {setup_wall:.4?}");

    let ber = ratio(open.bit_errors as f64, open.bits as f64);
    let mut problems = Vec::new();
    if rep.mismatches > 0 {
        problems.push(format!(
            "{} of {} replayed samples differ from the served decisions",
            rep.mismatches, rep.checked
        ));
    }
    if rep.checked < rep.expected {
        problems.push(format!(
            "only {} of {} sampled slots were served",
            rep.checked, rep.expected
        ));
    }
    if violations > 0 {
        problems.push(format!("{violations} requests had a negative stage time"));
    }
    if open.served_vectors == 0 || ber.is_nan() || ber >= BER_SANITY {
        problems.push(format!("served BER {ber} over {} bits", open.bits));
    }

    let attempted = open.offered_requests + cap.attempted;
    let failed = open.shed + open.busy + cap.failed + rep.mismatches as u64;
    let mut detail = vec![
        ("workload", json::string(w.name)),
        ("seed", o.seed.to_string()),
        ("host_cores", host_cores.to_string()),
        ("workers", workers.to_string()),
        ("rate_hz", rate.to_string()),
        ("trace", o.trace.to_string()),
        ("ber", json::number(ber)),
        ("ber_bits", open.bits.to_string()),
        (
            "fail_share",
            json::number(ratio(failed as f64, attempted as f64)),
        ),
        ("checked", rep.checked.to_string()),
        ("gate_residual", json::number(gate.mean_residual)),
        ("gate_vectors", gate.vectors.to_string()),
        (
            "host_speed",
            json::number(median(&[open.speeds.as_slice(), &cap.speeds].concat())),
        ),
        ("wall_capacity_hz", json::number(cap.wall_vectors_per_s)),
        ("wall_setup_s", json::number(median(&setup_wall))),
    ];

    let values = if let Some(tr) = tracer.as_ref() {
        let path = trace::out_dir().join(format!("{}-{}.trace.jsonl", w.name, o.seed));
        tr.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("sdbench: {} spans written to {}", tr.len(), path.display());
        detail.push(("trace_file", json::string(&path.display().to_string())));
        let rate = |(vectors, secs): (u64, f64)| ratio(vectors as f64, secs);
        let overhead = 1.0 - ratio(rate(cap.traced), rate(cap.untraced));
        per_layer(&mut open, stages, rep, ber, (overhead, cap.completions))
    } else {
        let show = |v: &[f64], scale: f64| {
            let cells: Vec<String> = v.iter().map(|x| format!("{:.4}", x * scale)).collect();
            cells.join(" ")
        };
        eprintln!(
            "sdbench: capacity by slice (vectors/reference s): {}",
            show(&cap.per_slice, 1.0)
        );
        eprintln!(
            "sdbench: worker speed, fixed rate: {}",
            show(&open.speeds, 1.0)
        );
        eprintln!(
            "sdbench: worker speed, capacity: {}",
            show(&cap.speeds, 1.0)
        );
        let p90s = open.window_percentiles(90.0, false);
        let wall_p90s = open.window_percentiles(90.0, true);
        let p99s = open.window_percentiles(99.0, true);
        let ontime = open.window_ontime();
        eprintln!(
            "sdbench: p90 by window (reference us): {}",
            show(&p90s, 1e-3)
        );
        eprintln!(
            "sdbench: p90 by window (wall us): {}",
            show(&wall_p90s, 1e-3)
        );
        eprintln!("sdbench: p99 by window (wall us): {}", show(&p99s, 1e-3));
        eprintln!("sdbench: on-time share by window: {}", show(&ontime, 1.0));
        let min_window = open
            .windows
            .iter()
            .map(|w| w.latencies.len())
            .min()
            .unwrap_or(0);
        // Over the whole phase, not per window: a window that shed or
        // missed everything must weigh in full.
        let offered: u64 = open.windows.iter().map(|w| w.offered_vectors).sum();
        let ontime_vectors: u64 = open.windows.iter().map(|w| w.ontime_vectors).sum();
        let mut all = open.all_latencies(false);
        let mut wall = open.all_latencies(true);
        detail.push((
            "wall_p50_latency_us",
            json::number(percentile(&mut wall, 50.0) as f64 / 1e3),
        ));
        detail.push((
            "wall_p90_latency_us",
            json::number(median(&wall_p90s) / 1e3),
        ));
        vec![
            value("capacity_hz", cap.vectors_per_s, cap.completions),
            value(
                "p50_latency_us",
                percentile(&mut all, 50.0) as f64 / 1e3,
                all.len() as u64,
            ),
            value(
                "p90_latency_us",
                median(&p90s) / 1e3,
                open.windows.len() as u64 * min_window as u64,
            ),
            value(
                "ontime_share",
                ratio(ontime_vectors as f64, offered as f64),
                offered,
            ),
            value("setup_s", median(&setup_s), setup_s.len() as u64),
            value("peak_rss_mib", peak_rss_mib()?, 1),
        ]
    };
    Ok(Report {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        values,
        detail,
    })
}

fn value(name: &str, value: f64, samples: u64) -> Value {
    Value {
        metric: metrics::find(name).expect("metric declared in the tables"),
        value,
        samples,
    }
}

/// Shutdown must hand back nothing: every response was collected.
fn check_drained(
    (_, vectors, frames): (MetricsSnapshot, Vec<DetectionResponse>, Vec<FrameResponse>),
) -> Result<(), String> {
    if vectors.is_empty() && frames.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "runtime handed back {} uncollected responses",
            vectors.len() + frames.len()
        ))
    }
}

/// Nearest-rank percentile of `v` in µs (`v` in ns).
fn us(v: &mut [u64], q: f64) -> f64 {
    percentile(v, q) as f64 / 1e3
}

fn per_layer(
    open: &mut OpenOutcome,
    mut st: Stages,
    mut rep: ReplayOutcome,
    ber: f64,
    (trace_overhead, cap_completions): (f64, u64),
) -> Vec<Value> {
    let (b, a) = (&open.before, &open.after);
    let items = |s: &MetricsSnapshot| s.mean_batch_size * s.batches as f64;
    let delta = |f: fn(&MetricsSnapshot) -> u64| f(a).saturating_sub(f(b)) as f64;
    let prepared = delta(|s| s.prep_cache_hits + s.prep_cache_misses + s.prep_cache_bypass);
    let n = |v: &[u64]| v.len() as u64;
    let search_sum: u64 = rep.search_ns.iter().sum();
    let requests = n(&st.lag);
    vec![
        value("loadgen.lag_p99_us", us(&mut st.lag, 99.0), requests),
        value(
            "serve.submit_ns_p50",
            percentile(&mut st.submit, 50.0) as f64,
            requests,
        ),
        value(
            "serve.batch_size_mean",
            ratio(items(a) - items(b), delta(|s| s.batches)),
            delta(|s| s.batches) as u64,
        ),
        value(
            "serve.overhead_us_p50",
            percentile(&mut rep.overhead_ns, 50.0) as f64 / 1e3,
            rep.overhead_ns.len() as u64,
        ),
        value(
            "serve.queue_wait_us_p50",
            us(&mut st.queue_wait, 50.0),
            requests,
        ),
        value(
            "serve.queue_wait_us_p99",
            us(&mut st.queue_wait, 99.0),
            requests,
        ),
        value("serve.service_us_p50", us(&mut st.service, 50.0), requests),
        value("serve.service_us_p99", us(&mut st.service, 99.0), requests),
        value("serve.egress_us_p50", us(&mut st.egress, 50.0), requests),
        value("serve.egress_us_p99", us(&mut st.egress, 99.0), requests),
        value(
            "serve.prep_hit_ratio",
            ratio(delta(|s| s.prep_cache_hits), prepared),
            prepared as u64,
        ),
        value(
            "serve.frames_fused_ratio",
            ratio(delta(|s| s.frames_fused), delta(|s| s.frames_served)),
            delta(|s| s.frames_served) as u64,
        ),
        value(
            "serve.exact_tier_share",
            ratio(open.exact_vectors as f64, open.served_vectors as f64),
            open.served_vectors,
        ),
        value(
            "serve.shed_share",
            ratio((open.shed + open.busy) as f64, open.offered_requests as f64),
            open.offered_requests,
        ),
        value("serve.ber", ber, open.bits),
        value(
            "core.prep_ns_p50",
            percentile(&mut rep.prep_ns, 50.0) as f64,
            n(&rep.prep_ns),
        ),
        value(
            "core.prep_apply_ns_p50",
            percentile(&mut rep.apply_ns, 50.0) as f64,
            n(&rep.apply_ns),
        ),
        value(
            "core.search_ns_p50",
            percentile(&mut rep.search_ns, 50.0) as f64,
            n(&rep.search_ns),
        ),
        value(
            "core.search_ns_p99",
            percentile(&mut rep.search_ns, 99.0) as f64,
            n(&rep.search_ns),
        ),
        value(
            "core.nodes_per_vector",
            ratio(rep.nodes as f64, rep.vectors as f64),
            rep.vectors,
        ),
        value(
            "core.ns_per_node",
            ratio(search_sum as f64, rep.nodes as f64),
            rep.nodes,
        ),
        value(
            "core.block_ns_per_subcarrier_p50",
            percentile(&mut rep.block_ns_per_vector, 50.0) as f64,
            rep.blocks as u64,
        ),
        value(
            "core.observe_ns_p50",
            percentile(&mut rep.observe_ns, 50.0) as f64,
            n(&rep.observe_ns),
        ),
        value(
            "math.qr_ns_p50",
            percentile(&mut rep.qr_ns, 50.0) as f64,
            n(&rep.qr_ns),
        ),
        value(
            "math.gemm_broadcast_ns_p50",
            percentile(&mut rep.gemm_broadcast_ns, 50.0) as f64,
            n(&rep.gemm_broadcast_ns),
        ),
        value(
            "math.fx_expand_level_ns_p50",
            percentile(&mut rep.fx_expand_level_ns, 50.0) as f64,
            n(&rep.fx_expand_level_ns),
        ),
        value("trace.overhead_share", trace_overhead, cap_completions),
    ]
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn print_report(w: &Workload, o: &Opts, r: &Report) {
    eprintln!(
        "sdbench: {} seed {} ({}): correct={} attempted={} failed={}",
        w.name,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        r.correct,
        r.attempted,
        r.failed
    );
    for v in &r.values {
        eprintln!(
            "  {:<34} {:>16.6} {:<10} n={}",
            v.metric.name, v.value, v.metric.unit, v.samples
        );
    }
    let samples: Vec<String> = r
        .values
        .iter()
        .map(|v| format!("{}: {}", json::string(v.metric.name), v.samples))
        .collect();
    let mut detail: Vec<String> = r
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::string(k)))
        .collect();
    detail.push(format!("\"samples\": {{{}}}", samples.join(", ")));
    println!("{{{}}}", detail.join(", "));
    let table: &[Metric] = if o.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|m| r.values.iter().find(|v| v.metric.name == m.name))
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(v.metric.name),
                json::number(v.value),
                json::string(v.metric.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}
