//! `sdbench run` and `sdbench compare`: many measured runs, and the verdict
//! between two sets of them.
//!
//! `run` starts one child process per workload and run (the same binary in
//! its single-run mode), prints every end-to-end metric with its unit,
//! median, quartiles and sample count, and writes a results file.
//! `compare` reads two results files and applies the regression bounds
//! and the pairwise-win rule, and calls any rise in the share of failed
//! requests a regression.

use crate::json::{self, Value};
use crate::metrics::{Better, Metric, BER, END_TO_END};
use crate::stats::{median, quartiles, ratio};
use crate::trace;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// One finished child run.
struct RunRecord {
    workload: String,
    seed: u64,
    correct: bool,
    attempted: f64,
    failed: f64,
    host_cores: f64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, f64>,
}

/// The metrics `run` reports and `compare` judges: every end-to-end
/// metric, plus the served BER.
fn judged() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(std::iter::once(&BER))
}

struct RunOpts {
    runs: u64,
    seed: u64,
    seconds: u64,
    out: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        runs: 1,
        seed: 1,
        seconds: 20,
        out: trace::out_dir().join("results.json"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--runs" => o.runs = num(value()?)?.max(1),
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => o.seconds = num(value()?)?,
            "--out" => o.out = PathBuf::from(value()?),
            "--smoke" => {
                o.smoke = true;
                o.seconds = 2;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(o)
}

/// `sdbench run [--runs N] [--seed S] [--seconds T] [--out FILE]
/// [--smoke]`. Returns the process exit code: nonzero when any
/// run failed a check.
pub fn run(args: &[String]) -> i32 {
    let o = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sdbench run: {e}");
            return 2;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sdbench run: cannot locate this executable: {e}");
            return 2;
        }
    };
    let mut records = Vec::new();
    let mut ok = true;
    for r in 0..o.runs {
        for w in WORKLOADS.iter().map(|w| w.name) {
            let seed = o.seed + r;
            eprintln!("sdbench run: {w}, seed {seed} ({}/{})", r + 1, o.runs);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit());
            if o.smoke {
                cmd.arg("--smoke");
            }
            let parsed = cmd.output().map_err(|e| e.to_string()).and_then(|out| {
                let rec = parse_child(&String::from_utf8_lossy(&out.stdout))?;
                if out.status.success() {
                    Ok(rec)
                } else {
                    Err(format!("exited with {}", out.status))
                }
            });
            match parsed {
                Ok(rec) => {
                    ok &= rec.correct;
                    records.push(rec);
                }
                Err(e) => {
                    eprintln!("sdbench run: {w} seed {seed}: {e}");
                    ok = false;
                }
            }
        }
    }
    let summary = summarize(&records);
    print_summary(&o, &summary, &records);
    if let Err(e) = write_results(&o, &records, &summary) {
        eprintln!("sdbench run: writing {}: {e}", o.out.display());
        return 1;
    }
    println!("results: {}", o.out.display());
    if ok {
        0
    } else {
        eprintln!("sdbench run: at least one run failed its checks");
        1
    }
}

/// Read a child's two JSON lines: details, then the result.
fn parse_child(stdout: &str) -> Result<RunRecord, String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("no result line")?)?;
    let detail = json::parse(lines.next().ok_or("no detail line")?)?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let mut metrics: BTreeMap<String, f64> = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(k, v)| (k.clone(), num(v, "value")))
        .collect();
    metrics.insert(BER.name.to_string(), num(&detail, "ber"));
    let mut samples: BTreeMap<String, f64> = detail
        .get("samples")
        .and_then(Value::as_obj)
        .map(|m| {
            m.iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default();
    samples.insert(BER.name.to_string(), num(&detail, "ber_bits"));
    Ok(RunRecord {
        workload: detail
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        seed: num(&detail, "seed") as u64,
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: num(&result, "attempted"),
        failed: num(&result, "failed"),
        host_cores: num(&detail, "host_cores"),
        metrics,
        samples,
    })
}

/// Per workload and metric: median, quartiles, run count, median samples.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
    samples: f64,
}

fn summarize(records: &[RunRecord]) -> BTreeMap<(String, &'static str), Summary> {
    let mut out = BTreeMap::new();
    for w in WORKLOADS {
        let runs: Vec<&RunRecord> = records.iter().filter(|r| r.workload == w.name).collect();
        if runs.is_empty() {
            continue;
        }
        for m in judged() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.samples.get(m.name).copied())
                .collect();
            let (q1, q3) = quartiles(&values);
            out.insert(
                (w.name.to_string(), m.name),
                Summary {
                    median: median(&values),
                    q1,
                    q3,
                    n: values.len(),
                    samples: median(&samples),
                },
            );
        }
    }
    out
}

fn print_summary(
    o: &RunOpts,
    summary: &BTreeMap<(String, &'static str), Summary>,
    records: &[RunRecord],
) {
    let host = records.first().map_or(0.0, |r| r.host_cores);
    println!(
        "sdbench: {} run(s) of {} s per workload, host_cores={host}",
        o.runs, o.seconds
    );
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>14} {:<10} {:>4} {:>12} {:>8}",
        "workload", "metric", "median", "q1", "q3", "unit", "runs", "samples/run", "spread"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        for m in judged() {
            let Some(s) = summary.get(&(w.to_string(), m.name)) else {
                continue;
            };
            let spread = if s.median != 0.0 {
                format!("{:.2}%", 100.0 * (s.q3 - s.q1) / s.median.abs())
            } else {
                "-".to_string()
            };
            println!(
                "{:<13} {:<15} {:>14.6} {:>14.6} {:>14.6} {:<10} {:>4} {:>12} {:>8}",
                w, m.name, s.median, s.q1, s.q3, m.unit, s.n, s.samples, spread
            );
        }
    }
    let failed: f64 = records.iter().map(|r| r.failed).sum();
    let attempted: f64 = records.iter().map(|r| r.attempted).sum();
    println!(
        "failed {failed} of {attempted} attempted requests; {} of {} runs correct",
        records.iter().filter(|r| r.correct).count(),
        records.len()
    );
}

fn write_results(
    o: &RunOpts,
    records: &[RunRecord],
    summary: &BTreeMap<(String, &'static str), Summary>,
) -> std::io::Result<()> {
    let obj = |m: &BTreeMap<String, f64>| {
        let fields: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("{}: {}", json::string(k), json::number(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let runs: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"samples\": {}}}",
                json::string(&r.workload),
                r.seed,
                r.correct,
                json::number(r.attempted),
                json::number(r.failed),
                obj(&r.metrics),
                obj(&r.samples)
            )
        })
        .collect();
    let rows: Vec<String> = summary
        .iter()
        .map(|((w, m), s)| {
            format!(
                "    {{\"workload\": {}, \"metric\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}, \"samples\": {}}}",
                json::string(w),
                json::string(m),
                json::number(s.median),
                json::number(s.q1),
                json::number(s.q3),
                s.n,
                json::number(s.samples)
            )
        })
        .collect();
    let host = records.first().map_or(0.0, |r| r.host_cores);
    let text = format!(
        "{{\n  \"host_cores\": {}, \"seconds\": {}, \"first_seed\": {}, \"smoke\": {},\n  \"runs\": [\n{}\n  ],\n  \"summary\": [\n{}\n  ]\n}}\n",
        json::number(host),
        o.seconds,
        o.seed,
        o.smoke,
        runs.join(",\n"),
        rows.join(",\n")
    );
    if let Some(dir) = o.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&o.out, text)
}

/// One workload's runs in a results file.
#[derive(Default)]
struct Runs {
    /// Metric values, in run order.
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
}

/// Every workload's runs in a results file.
fn load(path: &str) -> Result<BTreeMap<String, Runs>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for run in doc.get("runs").map(Value::as_arr).unwrap_or_default() {
        let w = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let per = out.entry(w.to_string()).or_default();
        let count = |k: &str| run.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        per.attempted += count("attempted");
        per.failed += count("failed");
        for (k, v) in run
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(x) = v.as_f64() {
                per.metrics.entry(k.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// The verdict for one metric on one workload.
pub fn verdict(m: &Metric, parent: &[f64], change: &[f64]) -> (&'static str, usize, usize) {
    let sign = match m.better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| (change[i] - parent[i]) * sign > 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let gain = (cm - pm) * sign;
    let allowed = m.bound.map_or(0.0, |b| b.allowed(pm));
    let worst_change = change
        .iter()
        .map(|x| x * sign)
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|x| x * sign)
        .fold(f64::NEG_INFINITY, f64::max);
    let v = if pairs == 0 {
        "unresolved"
    } else if -gain > allowed {
        "regressed"
    } else if wins * 10 >= pairs * 9 && gain > iqr {
        "improved"
    } else if iqr > allowed && worst_change <= best_parent {
        "unresolved"
    } else {
        "unchanged"
    };
    (v, wins, pairs)
}

/// `sdbench compare PARENT.json CHANGE.json`. Exit code 1 when any metric
/// regressed on any workload.
pub fn compare(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: sdbench compare PARENT.json CHANGE.json");
        return 2;
    };
    let (p, c) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sdbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>14} {:>9} {:<10}",
        "workload", "metric", "parent", "parent IQR", "change", "wins", "verdict"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        let (Some(pw), Some(cw)) = (p.get(w.name), c.get(w.name)) else {
            continue;
        };
        for m in judged() {
            let (Some(pv), Some(cv)) = (pw.metrics.get(m.name), cw.metrics.get(m.name)) else {
                continue;
            };
            let (v, wins, pairs) = verdict(m, pv, cv);
            regressed |= v == "regressed";
            let (q1, q3) = quartiles(pv);
            println!(
                "{:<13} {:<15} {:>14.6} {:>14.6} {:>14.6} {:>9} {:<10}",
                w.name,
                m.name,
                median(pv),
                q3 - q1,
                median(cv),
                format!("{wins}/{pairs}"),
                v
            );
        }
        // Failed requests (shed, busy slot, wrong decision) over attempted
        // ones, pooled over the runs: any increase is a regression.
        let (pf, cf) = (fail_share(pw), fail_share(cw));
        let v = if cf > pf { "regressed" } else { "unchanged" };
        regressed |= cf > pf;
        println!(
            "{:<13} {:<15} {:>14.6} {:>14} {:>14.6} {:>9} {:<10}",
            w.name, "failed_share", pf, "-", cf, "-", v
        );
    }
    i32::from(regressed)
}

fn fail_share(runs: &Runs) -> f64 {
    ratio(runs.failed, runs.attempted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_the_bounds_and_the_pair_rule() {
        let cap = find("capacity_hz").unwrap();
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 0.7).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(cap, &parent, &faster).0, "improved");
        assert_eq!(verdict(cap, &parent, &slower).0, "regressed");
        assert_eq!(verdict(cap, &parent, &same).0, "unchanged");
        // Latency: lower is better, so the same shifts flip.
        let p50 = find("p50_latency_us").unwrap();
        assert_eq!(verdict(p50, &parent, &slower).0, "improved");
        // A spread wider than the bound cannot be called unchanged.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(cap, &noisy, &noisy).0, "unresolved");
        // BER is judged against its absolute floor near zero.
        assert_eq!(verdict(&BER, &[0.0; 4], &[5e-6; 4]).0, "unchanged");
        assert_eq!(verdict(&BER, &[0.0; 4], &[5e-5; 4]).0, "regressed");
    }
}
