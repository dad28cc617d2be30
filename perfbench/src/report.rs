//! What one workload run produces, and how it is printed: the
//! end-to-end rows, the per-layer table, the span summary, and the
//! single JSON result line that must come last on stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::{median, percentile, ratio, summarize, Span};

/// End-to-end metrics of `BENCHMARK.json`, printed by every workload
/// with `--trace 0` (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("tick_p50_ms", "ms"),
    ("tick_p99_cpu_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("released_bytes_per_tick", "bytes"),
    ("ok_ops_ratio", "ratio"),
];

/// Per-layer metrics of `BENCHMARK.json`, printed by every workload
/// with `--trace 1`. Metrics that exist on one workload only (per-stage
/// breakdowns, server round trips, snapshot rotation, recovery replay)
/// appear in the printed table but not in the JSON line.
pub const PER_LAYER: &[&str] = &[
    "core.runtime.tick_ms.p50",
    "core.runtime.tick_ms.p99",
    "core.runtime.ingest_us.p50",
    "core.runtime.set_policy_us.p50",
    "core.runtime.register_us.p50",
    "core.runtime.remove_us.p50",
    "core.runtime.plan_hit_ratio",
    "sql.parse_us.p50",
    "policy.parse_us.p50",
    "core.preprocess.rewrite_us.p50",
    "core.preprocess.actions",
    "core.fragment.fragment_us.p50",
    "core.fragment.stages",
    "engine.compile_us.p50",
    "engine.plan_hit_ratio",
    "engine.plan_invalidations",
    "engine.shared_plans",
    "nodes.rows_out.total",
    "nodes.useful_row_ratio",
    "nodes.shipped_bytes_per_tick",
    "nodes.stage_rescan_ms.total",
    "core.postprocess.anon_ms.p50",
    "core.dp.noise_draws_per_tick",
    "core.dp.epsilon_spent",
    "core.storage.wal_bytes_per_tick",
    "core.storage.wal_commits_per_tick",
    "core.storage.snapshots",
    "server.encode_us.p50",
    "server.decode_us.p50",
    "server.frame_bytes_per_cycle",
    "server.refused_ops",
    "server.dedup_hits",
    "process.cpu_ms_per_cycle",
    "process.failed_ops_ratio",
    "process.tracing_overhead_ratio",
];

/// Which end-to-end metric (and workload) a per-layer metric should
/// move, and the workload on which it should read flat — keyed by the
/// longest matching metric-name prefix.
const EXPECTATIONS: &[(&str, &str, &str)] = &[
    (
        "core.runtime.tick_ms",
        "tick_p50_ms, tick_p99_ms, rows_per_s @ paper_stream",
        "-",
    ),
    (
        "core.runtime.ingest_us",
        "tick_p50_ms, rows_per_s @ paper_stream",
        "-",
    ),
    (
        "core.runtime.set_policy_us",
        "tick_p50_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "core.runtime.register_us",
        "tick_p50_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "core.runtime.remove_us",
        "tick_p50_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "core.runtime.plan_hit_ratio",
        "tick_p50_ms @ policy_churn",
        "paper_stream (stays 1.0)",
    ),
    ("sql.", "tick_p50_ms @ policy_churn", "paper_stream"),
    ("policy.", "tick_p50_ms @ policy_churn", "paper_stream"),
    (
        "core.preprocess.",
        "tick_p50_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "core.fragment.",
        "tick_p50_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "engine.",
        "tick_p50_ms, tick_p99_ms @ policy_churn",
        "paper_stream",
    ),
    (
        "nodes.stage_rescan_ms",
        "tick_p99_ms @ paper_stream (a rebuild is a rescan)",
        "-",
    ),
    (
        "nodes.",
        "tick_p50_ms, rows_per_s, peak_rss_mb @ paper_stream",
        "served_tenants",
    ),
    ("core.postprocess.", "tick_p50_ms @ served_tenants", "-"),
    (
        "core.dp.",
        "tick_p50_ms @ policy_churn, served_tenants",
        "paper_stream",
    ),
    ("core.storage.replay", "recover_s @ served_tenants", "-"),
    (
        "core.storage.",
        "tick_p50_ms, tick_p99_ms @ served_tenants",
        "paper_stream",
    ),
    ("server.refused_ops", "ok_ops_ratio @ served_tenants", "-"),
    ("server.dedup_hits", "ok_ops_ratio @ served_tenants", "-"),
    (
        "server.",
        "tick_p50_ms, rows_per_s @ served_tenants",
        "paper_stream",
    ),
    (
        "process.failed_ops_ratio",
        "ok_ops_ratio @ every workload",
        "-",
    ),
    ("process.", "busy vs waiting @ every workload", "-"),
];

/// One per-layer figure. `span` names the traced span whose self time
/// is shown next to it.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub span: Option<String>,
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Duration of every timed cycle, ms.
    pub cycle_ms: Vec<f64>,
    /// Process CPU time of every timed cycle, ms.
    pub cycle_cpu_ms: Vec<f64>,
    /// Whether the cycle at the same index was traced.
    pub cycle_traced: Vec<bool>,
    /// Rows ingested per cycle.
    pub rows_per_cycle: u64,
    /// Set-up durations (one per repeated set-up), s.
    pub setup_s: Vec<f64>,
    /// Released bytes summed over every timed tick, and the tick count.
    pub released_bytes: u64,
    pub ticks: u64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Output-check failures (empty = correct).
    pub mismatches: Vec<String>,
    /// End-to-end figures that only this workload has (name, value, unit).
    pub extra: Vec<(String, f64, &'static str)>,
    pub layers: Vec<LayerMetric>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.layers.push(LayerMetric {
            name: name.into(),
            unit,
            value,
            span: None,
        });
    }

    /// A per-layer metric: percentile `q` of the named span's
    /// durations, in `unit` (`us`, `ms`, else seconds).
    pub fn layer_span(&mut self, name: &str, unit: &'static str, span: &str, q: f64) {
        let scale = match unit {
            "us" => 1e-3,
            "ms" => 1e-6,
            _ => 1e-9,
        };
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns() as f64 * scale)
            .collect();
        let value = percentile(&durations, q);
        self.layers.push(LayerMetric {
            name: name.into(),
            unit,
            value,
            span: Some(span.into()),
        });
    }

    fn select(&self, traced: bool) -> Vec<f64> {
        self.cycle_ms
            .iter()
            .zip(&self.cycle_traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&ms, _)| ms)
            .collect()
    }

    fn rows_per_s(&self, cycles: &[f64]) -> f64 {
        ratio(
            self.rows_per_cycle as f64 * cycles.len() as f64,
            cycles.iter().sum::<f64>() / 1e3,
        )
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let cycles = &self.cycle_ms;
        let value = |name: &str| match name {
            "tick_p50_ms" => median(cycles),
            "tick_p99_cpu_ms" => percentile(&self.cycle_cpu_ms, 0.99),
            "rows_per_s" => self.rows_per_s(cycles),
            "setup_s" => median(&self.setup_s),
            "peak_rss_mb" => self.peak_rss_mb,
            "released_bytes_per_tick" => ratio(self.released_bytes as f64, self.ticks as f64),
            "ok_ops_ratio" => 1.0 - ratio(self.failed as f64, self.attempted as f64),
            other => unreachable!("unknown end-to-end metric {other}"),
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    }

    /// Tracing overhead over the interleaved traced and untraced
    /// cycles: both throughputs, and the overhead ratio from their
    /// medians — a throughput ratio would mostly measure how many of
    /// the rare rebuild cycles each half happened to get.
    pub fn add_tracing_overhead(&mut self) {
        let (untraced, traced) = (self.select(false), self.select(true));
        self.layer(
            "process.untraced_rows_per_s",
            "rows/s",
            self.rows_per_s(&untraced),
        );
        self.layer(
            "process.traced_rows_per_s",
            "rows/s",
            self.rows_per_s(&traced),
        );
        let (u, t) = (median(&untraced), median(&traced));
        self.layer("process.tracing_overhead_ratio", "ratio", ratio(t - u, u));
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The human-readable report (everything but the JSON line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mode = if self.trace { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} seed={} ({mode})", self.workload, self.seed);
        let _ = writeln!(
            out,
            "cycles={} (p99 has {} samples beyond it) setups={} ops attempted={} failed={}",
            self.cycle_ms.len(),
            self.cycle_ms.len() / 100,
            self.setup_s.len(),
            self.attempted,
            self.failed
        );
        let _ = writeln!(out, "-- end-to-end");
        for (name, value, unit) in self.end_to_end() {
            let _ = writeln!(out, "{name:<28} {value:>14.4} {unit}");
        }
        // the wall-clock tail: what a caller waits, host steal included
        let wall_p99 = percentile(&self.cycle_ms, 0.99);
        let _ = writeln!(out, "{:<28} {wall_p99:>14.4} ms", "tick_p99_ms");
        for (name, value, unit) in &self.extra {
            let _ = writeln!(out, "{name:<28} {value:>14.4} {unit}");
        }
        if self.trace {
            let summary = summarize(&self.spans);
            let self_p50 = |span: &Option<String>| {
                span.as_ref()
                    .and_then(|s| summary.get(s))
                    .map(|s| median(&s.self_times))
            };
            let _ = writeln!(out, "-- per layer");
            let _ = writeln!(
                out,
                "{:<40} {:>14} {:<7} {:>12}  {:<52} flat on",
                "metric", "value", "unit", "self p50 ms", "should move"
            );
            for m in &self.layers {
                let self_ms = self_p50(&m.span).map_or("-".to_string(), |v| format!("{v:.4}"));
                let (moves, flat) = expectation(&m.name);
                let _ = writeln!(
                    out,
                    "{:<40} {:>14.4} {:<7} {:>12}  {moves:<52} {flat}",
                    m.name, m.value, m.unit, self_ms
                );
            }
            let _ = writeln!(out, "-- spans (ms)");
            let _ = writeln!(
                out,
                "{:<36} {:>7} {:>10} {:>10} {:>12} {:>12}",
                "span", "count", "p50", "p99", "total", "self total"
            );
            for (name, s) in &summary {
                let total: f64 = s.durations.iter().sum();
                let self_total: f64 = s.self_times.iter().sum();
                let _ = writeln!(
                    out,
                    "{name:<36} {:>7} {:>10.4} {:>10.4} {:>12.3} {:>12.3}",
                    s.durations.len(),
                    median(&s.durations),
                    percentile(&s.durations, 0.99),
                    total,
                    self_total
                );
            }
        }
        for m in &self.mismatches {
            let _ = writeln!(out, "MISMATCH (seed {}): {m}", self.seed);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics the mode promises. Panics if a registered metric was not
    /// measured — that is a bug in the workload, not a result.
    pub fn json(&self) -> String {
        let metrics: Vec<(String, f64, &str)> = if self.trace {
            let by_name: BTreeMap<&str, &LayerMetric> =
                self.layers.iter().map(|m| (m.name.as_str(), m)).collect();
            PER_LAYER
                .iter()
                .map(|&name| {
                    let m = by_name.get(name).unwrap_or_else(|| {
                        panic!("{} did not measure per-layer metric {name}", self.workload)
                    });
                    (name.to_string(), m.value, m.unit)
                })
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(n, v, u)| (n.to_string(), v, u))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn expectation(metric: &str) -> (&'static str, &'static str) {
    EXPECTATIONS
        .iter()
        .filter(|(prefix, _, _)| metric.starts_with(prefix))
        .max_by_key(|(prefix, _, _)| prefix.len())
        .map_or(("-", "-"), |&(_, moves, flat)| (moves, flat))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_pick_the_longest_prefix() {
        assert_eq!(
            expectation("nodes.stage_rescan_ms.appliance").0,
            EXPECTATIONS[11].1
        );
        assert_eq!(expectation("nodes.useful_row_ratio").1, "served_tenants");
        assert_eq!(
            expectation("core.storage.replay_ms").0,
            "recover_s @ served_tenants"
        );
        for name in PER_LAYER {
            assert_ne!(expectation(name).0, "-", "{name} has no expectation");
        }
    }

    #[test]
    fn json_line_holds_exactly_the_registered_metrics() {
        let mut r = Report {
            workload: "test",
            cycle_ms: vec![1.0, 2.0, 3.0],
            cycle_cpu_ms: vec![1.0, 2.0, 3.0],
            cycle_traced: vec![false, false, false],
            rows_per_cycle: 10,
            setup_s: vec![0.5],
            ticks: 3,
            released_bytes: 30,
            attempted: 6,
            ..Report::default()
        };
        let line = r.json();
        for (name, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\"")),
                "{name} missing from {line}"
            );
        }
        assert!(
            line.contains("\"rows_per_s\": {\"value\": 5000.0"),
            "{line}"
        );
        r.trace = true;
        for name in PER_LAYER {
            r.layer(*name, "count", 1.0);
        }
        let line = r.json();
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(
            names,
            3 + END_TO_END.len() + PER_LAYER.len(),
            "unregistered entries"
        );
    }
}
