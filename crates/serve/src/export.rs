//! Export surfaces for [`MetricsSnapshot`]: Prometheus text exposition
//! and JSON lines.
//!
//! Both renderers are dependency-free string builders (the workspace
//! carries no JSON library) that walk the rows the metric declarations
//! generate ([`crate::metrics`]), so every declared metric appears in
//! both formats under one name: the runtime-wide set, then one labelled
//! sample (Prometheus) or array element (JSON) per shard and per tier.
//! [`validate_json`] is a minimal recursive-descent JSON checker used by
//! the demo's smoke mode (and tests) to prove the emitted line actually
//! parses.

use crate::metrics::{Kind, MetricsSnapshot, Row, ShardSnapshot, TierSnapshot, Value};
use std::fmt::Write as _;

/// Rendering used by the export helpers and the periodic reporter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportFormat {
    /// Prometheus text exposition format (`# HELP` / `# TYPE` / samples).
    Prometheus,
    /// One self-contained JSON object per snapshot.
    JsonLines,
}

/// Render a snapshot in the requested format.
pub fn render(snap: &MetricsSnapshot, format: ExportFormat) -> String {
    match format {
        ExportFormat::Prometheus => prometheus_text(snap),
        ExportFormat::JsonLines => json_line(snap),
    }
}

/// JSON numbers must be finite; NaN/∞ degrade to 0.
fn json_f64(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{}", json_f64(v)),
        }
    }
}

/// Escape a string for a JSON string literal or a Prometheus label value.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write one metric set in the Prometheus format: a `# HELP` / `# TYPE`
/// header per family, then one sample per member, where a member is one
/// label set (`""` for the runtime-wide set) and its snapshot.
fn prometheus_set<S>(o: &mut String, prefix: &str, rows: &[Row<S>], members: &[(String, &S)]) {
    let mut family = "";
    for row in rows {
        let (suffix, ty, quantile) = match row.kind {
            Kind::Counter => ("_total", "counter", None),
            Kind::Gauge => ("", "gauge", None),
            Kind::Quantile(q) => ("", "summary", Some(q)),
        };
        let name = format!("{prefix}{}{suffix}", row.family);
        if row.family != family {
            family = row.family;
            let _ = writeln!(o, "# HELP {name} {}", row.help.trim());
            let _ = writeln!(o, "# TYPE {name} {ty}");
        }
        for (labels, snap) in members {
            let quantile = quantile.map(|q| format!("quantile=\"{q}\""));
            let labels: Vec<&str> = [Some(labels.as_str()), quantile.as_deref()]
                .into_iter()
                .flatten()
                .filter(|l| !l.is_empty())
                .collect();
            let value = (row.read)(snap);
            if labels.is_empty() {
                let _ = writeln!(o, "{name} {value}");
            } else {
                let _ = writeln!(o, "{name}{{{}}} {value}", labels.join(","));
            }
        }
    }
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counter samples carry the conventional `_total` suffix; quantile
/// summaries use a `quantile` label; per-shard and per-tier samples a
/// `shard` and a `tier` label.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut o = String::with_capacity(4096);
    prometheus_set(
        &mut o,
        "sd_serve_",
        MetricsSnapshot::ROWS,
        &[(String::new(), snap)],
    );
    let shards: Vec<(String, &ShardSnapshot)> = snap
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("shard=\"{i}\""), s))
        .collect();
    prometheus_set(&mut o, "sd_serve_shard_", ShardSnapshot::ROWS, &shards);
    let tiers: Vec<(String, &TierSnapshot)> = snap
        .tiers
        .iter()
        .map(|t| (format!("tier=\"{}\"", escape(&t.label)), t))
        .collect();
    prometheus_set(&mut o, "sd_serve_tier_", TierSnapshot::ROWS, &tiers);
    o
}

/// Write one snapshot's rows as comma-separated JSON members.
fn json_set<S>(o: &mut String, rows: &[Row<S>], snap: &S) {
    for (i, row) in rows.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(o, "{sep}\"{}\":{}", row.key, (row.read)(snap));
    }
}

/// Render a snapshot as one self-contained JSON object (no trailing
/// newline) — the JSON-lines record format.
pub fn json_line(snap: &MetricsSnapshot) -> String {
    let mut o = String::with_capacity(2048);
    o.push('{');
    json_set(&mut o, MetricsSnapshot::ROWS, snap);
    o.push_str(",\"shards\":[");
    for (i, s) in snap.shards.iter().enumerate() {
        o.push_str(if i > 0 { ",{" } else { "{" });
        json_set(&mut o, ShardSnapshot::ROWS, s);
        o.push('}');
    }
    o.push_str("],\"tiers\":[");
    for (i, t) in snap.tiers.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(o, "{sep}{{\"label\":\"{}\",", escape(&t.label));
        json_set(&mut o, TierSnapshot::ROWS, t);
        o.push('}');
    }
    o.push_str("]}");
    o
}

/// Check that `s` is exactly one well-formed JSON value (with optional
/// surrounding whitespace). Returns the byte offset and a description on
/// the first violation.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{} at byte {}", what, self.pos)
    }

    fn value(&mut self) -> Result<(), String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.pos += 1; // '{'
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.pos += 1; // '['
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.b.get(self.pos) {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits"));
        }
        // Leading zeros are invalid JSON ("01"), a bare zero is fine.
        if self.b[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, TierSnapshot};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn sample_snapshot() -> MetricsSnapshot {
        let m = Metrics::new(vec![Arc::from("exact"), Arc::from("mmse")], 2, 4);
        m.shards[0].routed.store(6, Ordering::Relaxed);
        m.shards[0].served.store(5, Ordering::Relaxed);
        m.shards[0].affinity_served.store(4, Ordering::Relaxed);
        m.shards[0].stolen_out.store(1, Ordering::Relaxed);
        m.shards[1].routed.store(4, Ordering::Relaxed);
        m.shards[1].served.store(4, Ordering::Relaxed);
        m.shards[1].stolen_in.store(1, Ordering::Relaxed);
        m.core_budget.store(4, Ordering::Relaxed);
        m.budget_replans.store(3, Ordering::Relaxed);
        m.accepted.store(10, Ordering::Relaxed);
        m.served.store(9, Ordering::Relaxed);
        m.deadline_missed.store(1, Ordering::Relaxed);
        m.quality_exact.store(8, Ordering::Relaxed);
        m.budget_exhausted.store(1, Ordering::Relaxed);
        m.batches.store(3, Ordering::Relaxed);
        m.batch_items.store(9, Ordering::Relaxed);
        m.latency_ns.record(150_000);
        m.prep_cache_hits.store(5, Ordering::Relaxed);
        m.prep_cache_misses.store(3, Ordering::Relaxed);
        m.prep_cache_bypass.store(1, Ordering::Relaxed);
        m.prep_factors.store(3, Ordering::Relaxed);
        m.frames_served.store(2, Ordering::Relaxed);
        m.frames_fused.store(1, Ordering::Relaxed);
        m.tiers[0].served.fetch_add(7, Ordering::Relaxed);
        m.tiers[0].predict_err_ns.record(40_000);
        m.tiers[1].served.fetch_add(2, Ordering::Relaxed);
        m.snapshot(&[2, 0])
    }

    #[test]
    fn prometheus_text_contains_all_families() {
        let text = prometheus_text(&sample_snapshot());
        for needle in [
            "sd_serve_served_total 9",
            "sd_serve_accepted_total 10",
            "sd_serve_deadline_missed_total 1",
            "sd_serve_quality_exact_total 8",
            "sd_serve_budget_exhausted_total 1",
            "sd_serve_queue_depth 2",
            "sd_serve_prep_cache_hits_total 5",
            "sd_serve_prep_cache_misses_total 3",
            "sd_serve_prep_cache_bypass_total 1",
            "sd_serve_frames_served_total 2",
            "sd_serve_frames_fused_total 1",
            "sd_serve_prep_factors_total 3",
            "sd_serve_prep_amortization 3",
            "sd_serve_mean_batch_size 3",
            "sd_serve_nodes_generated_total 0",
            "sd_serve_latency_us{quantile=\"0.5\"} 262.143",
            "sd_serve_tier_served_total{tier=\"exact\"} 7",
            "sd_serve_tier_served_total{tier=\"mmse\"} 2",
            "sd_serve_tier_predict_err_us{tier=\"exact\",quantile=\"0.5\"}",
            "sd_serve_latency_us{quantile=\"0.99\"}",
            "# TYPE sd_serve_served_total counter",
            "# TYPE sd_serve_deadline_miss_rate gauge",
            "sd_serve_host_cores 4",
            "sd_serve_n_shards 2",
            "sd_serve_core_budget 4",
            "sd_serve_budget_replans_total 3",
            "sd_serve_shard_routed_total{shard=\"0\"} 6",
            "sd_serve_shard_routed_total{shard=\"1\"} 4",
            "sd_serve_shard_served_total{shard=\"0\"} 5",
            "sd_serve_shard_affinity_served_total{shard=\"0\"} 4",
            "sd_serve_shard_stolen_in_total{shard=\"1\"} 1",
            "sd_serve_shard_stolen_out_total{shard=\"0\"} 1",
            "sd_serve_shard_queue_depth{shard=\"0\"} 2",
            "sd_serve_shard_queue_depth{shard=\"1\"} 0",
            "# TYPE sd_serve_shard_routed_total counter",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_line_is_valid_json_with_tiers() {
        let snap = sample_snapshot();
        let line = json_line(&snap);
        validate_json(&line).expect("snapshot JSON must parse");
        assert!(!line.contains('\n'), "JSON-lines records are single-line");
        assert!(line.contains("\"served\":9"));
        assert!(line.contains("\"quality_exact\":8"));
        assert!(line.contains("\"budget_exhausted\":1"));
        assert!(line.contains("\"prep_cache_hits\":5"));
        assert!(line.contains("\"prep_cache_misses\":3"));
        assert!(line.contains("\"prep_cache_bypass\":1"));
        assert!(line.contains("\"frames_served\":2"));
        assert!(line.contains("\"frames_fused\":1"));
        assert!(line.contains("\"prep_factors\":3"));
        assert!(line.contains("\"prep_amortization\":3"));
        assert!(line.contains("\"p50_latency_us\":262.143"));
        assert!(line.contains("\"rejected_predicted_late\":0"));
        assert!(line.contains("\"label\":\"exact\",\"served\":7"));
        assert!(line.contains("p99_predict_err_us"));
        assert!(line.contains("\"host_cores\":4"));
        assert!(line.contains("\"n_shards\":2"));
        assert!(line.contains("\"core_budget\":4"));
        assert!(line.contains("\"budget_replans\":3"));
        assert!(line.contains("\"shards\":[{\"routed\":6"));
        assert!(line.contains("\"stolen_in\":1"));
        assert!(line.contains("\"queue_depth\":2"));
    }

    #[test]
    fn render_dispatches_by_format() {
        let snap = sample_snapshot();
        assert_eq!(
            render(&snap, ExportFormat::Prometheus),
            prometheus_text(&snap)
        );
        assert_eq!(render(&snap, ExportFormat::JsonLines), json_line(&snap));
    }

    #[test]
    fn labels_are_escaped() {
        let mut snap = sample_snapshot();
        snap.tiers.push(TierSnapshot {
            label: Arc::from("we\"ird\\tier"),
            served: 1,
            p50_predict_err_us: 0.0,
            p99_predict_err_us: 0.0,
        });
        let line = json_line(&snap);
        validate_json(&line).expect("escaped label must stay parseable");
        assert!(line.contains("we\\\"ird\\\\tier"));
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        assert_eq!(Value::Float(f64::NAN).to_string(), "0");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Int(7).to_string(), "7");
    }

    /// Every declared row appears in both formats under its one name.
    #[test]
    fn every_declared_row_is_in_both_exports() {
        let snap = sample_snapshot();
        let text = prometheus_text(&snap);
        let line = json_line(&snap);
        for (prefix, rows) in [
            (
                "sd_serve_",
                MetricsSnapshot::ROWS
                    .iter()
                    .map(|r| (r.key, r.family, r.kind))
                    .collect::<Vec<_>>(),
            ),
            (
                "sd_serve_shard_",
                ShardSnapshot::ROWS
                    .iter()
                    .map(|r| (r.key, r.family, r.kind))
                    .collect(),
            ),
            (
                "sd_serve_tier_",
                TierSnapshot::ROWS
                    .iter()
                    .map(|r| (r.key, r.family, r.kind))
                    .collect(),
            ),
        ] {
            for (key, family, kind) in rows {
                let suffix = if kind == Kind::Counter { "_total" } else { "" };
                let name = format!("{prefix}{family}{suffix}");
                assert!(text.contains(&format!("# TYPE {name} ")), "{name} missing");
                assert!(line.contains(&format!("\"{key}\":")), "{key} missing");
            }
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "  {\"a\": [1, 2.5, -3e4, true, false, null, \"s\\n\"]} ",
            "0",
            "-0.5",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} extra",
            "01",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "NaN",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
