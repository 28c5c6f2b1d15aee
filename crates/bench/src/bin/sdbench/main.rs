//! `sdbench` — the repository benchmark.
//!
//! Drives the real `sd-serve` runtime with a seeded, open-loop load of four
//! traffic shapes, times every request from its due time to its
//! collection, checks every served decision it samples against a replay,
//! and reports end-to-end metrics (or, traced, per-layer ones). See
//! `README.md` next to this package for the metric table and workloads.

mod generator;
mod host;
mod json;
mod measure;
mod metrics;
mod replay;
mod stats;
mod suite;
mod trace;
mod workload;

const USAGE: &str = "\
usage:
  sdbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>] [--smoke]
      one measured run of one workload; the last stdout line is the result
  sdbench run [--runs N] [--seed S] [--seconds T] [--out FILE] [--smoke]
      every workload (one child process each), N times, with a summary table
  sdbench --smoke
      every workload once for about 2 s each, all checks on
  sdbench compare PARENT.json CHANGE.json
      improved / regressed / unchanged / unresolved per metric and workload

workloads: iid8, coherent16, grid8_frames, grid8_fx";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        Some("--smoke") if args.len() == 1 => suite::run(&args),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        Some(_) => measure::main(&args),
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
