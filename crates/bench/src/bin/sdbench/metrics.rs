//! The one place every reported metric is declared: name, unit, which
//! direction is better and, for the end-to-end metrics, the regression
//! bound. `BENCHMARK.json` mirrors these tables (a test keeps them equal).

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// The `bound` recorded in `BENCHMARK.json`: a share of the parent's
    /// median, or an absolute amount when `absolute` is set.
    pub share: f64,
    pub absolute: bool,
    /// Smallest allowed worsening, for metrics whose median can be ~0.
    pub floor: f64,
}

impl Bound {
    const fn relative(share: f64) -> Self {
        Bound {
            share,
            absolute: false,
            floor: 0.0,
        }
    }

    /// The worsening allowed against a parent median of `base`.
    pub fn allowed(&self, base: f64) -> f64 {
        if self.absolute {
            self.share
        } else {
            (self.share * base.abs()).max(self.floor)
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("capacity_hz", "vectors/s", Higher, Bound::relative(0.25)),
    e2e("p50_latency_us", "us", Lower, Bound::relative(0.25)),
    e2e("p90_latency_us", "us", Lower, Bound::relative(0.25)),
    e2e(
        "ontime_share",
        "share",
        Higher,
        Bound {
            share: 0.01,
            absolute: true,
            floor: 0.0,
        },
    ),
    e2e("setup_s", "s", Lower, Bound::relative(0.25)),
    e2e("peak_rss_mib", "MiB", Lower, Bound::relative(0.10)),
];

/// Served bit-error rate: printed and compared by `run`/`compare`, but not
/// an end-to-end metric of `BENCHMARK.json`, because it is 0 on
/// `coherent16` (the traced run reports it as `serve.ber`).
pub const BER: Metric = e2e(
    "ber",
    "share",
    Lower,
    Bound {
        share: 0.10,
        absolute: false,
        floor: 1e-5,
    },
);

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("serve.submit_ns_p50", "ns", Lower),
    layer("serve.batch_size_mean", "items", Higher),
    layer("serve.overhead_us_p50", "us", Lower),
    layer("serve.queue_wait_us_p50", "us", Lower),
    layer("serve.queue_wait_us_p99", "us", Lower),
    layer("serve.service_us_p50", "us", Lower),
    layer("serve.service_us_p99", "us", Lower),
    layer("serve.egress_us_p50", "us", Lower),
    layer("serve.egress_us_p99", "us", Lower),
    layer("serve.prep_hit_ratio", "share", Higher),
    layer("serve.frames_fused_ratio", "share", Higher),
    layer("serve.exact_tier_share", "share", Higher),
    layer("serve.shed_share", "share", Lower),
    layer("serve.ber", "share", Lower),
    layer("core.prep_ns_p50", "ns", Lower),
    layer("core.prep_apply_ns_p50", "ns", Lower),
    layer("core.search_ns_p50", "ns", Lower),
    layer("core.search_ns_p99", "ns", Lower),
    layer("core.nodes_per_vector", "count", Lower),
    layer("core.ns_per_node", "ns", Lower),
    layer("core.block_ns_per_subcarrier_p50", "ns", Lower),
    layer("core.observe_ns_p50", "ns", Lower),
    layer("math.qr_ns_p50", "ns", Lower),
    layer("math.gemm_broadcast_ns_p50", "ns", Lower),
    layer("math.fx_expand_level_ns_p50", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// Look a metric up by name in every table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(std::iter::once(&BER))
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        // The manifest is `crates/bench` or this directory, depending on
        // which package builds the tests.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Metric]| {
            let rows = doc.get(key).map(Value::as_arr).unwrap_or_default();
            assert_eq!(rows.len(), table.len(), "{key}: metric count");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(row.get("unit").and_then(Value::as_str), Some(m.unit));
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    row.get("better").and_then(Value::as_str),
                    Some(better),
                    "{}",
                    m.name
                );
                let bound = row.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, m.bound.map(|b| b.share), "{}", m.name);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = find("setup_s").and_then(|m| m.bound).unwrap().share;
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap().share <= setup && m.bound.unwrap().share <= 0.25));
    }
}
