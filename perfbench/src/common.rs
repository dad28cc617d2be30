//! Pieces every workload shares: run arguments, the per-layer counters
//! gathered outside the timed spans, and the mapping from spans and
//! counters to the per-layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Duration;

use paradise_core::{Outcome, QueryHandle, Runtime};

use crate::measure::{derive, median, ratio, Span};
use crate::replay::ReplayOutcome;
use crate::report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Fewest timed cycles per run, so p99 has ten samples beyond it.
pub const MIN_CYCLES: u64 = 1_000;
/// A run stops adding cycles past this, whatever `MIN_CYCLES` says.
pub const MAX_LOOP: Duration = Duration::from_secs(60);
/// Traced runs replay a traced cycle decomposed when its index is a
/// multiple of this.
pub const SAMPLE_EVERY: u64 = 32;

/// Seed streams: each kind of generated input draws from its own.
pub const STREAM_WINDOW: u64 = 1;
pub const STREAM_BATCH: u64 = 2;
pub const STREAM_TRACE: u64 = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Share of each cycle's own duration to busy-wait on top of it
    /// (the self-check's injected slowdown; 0 in real runs).
    pub delay: f64,
    /// Where scratch directories and span dumps go.
    pub out_dir: PathBuf,
}

impl Args {
    /// Keep adding cycles? (At least `MIN_CYCLES` and `seconds`.)
    pub fn more(&self, cycles: u64, elapsed: Duration) -> bool {
        (cycles < MIN_CYCLES || elapsed.as_secs_f64() < self.seconds) && elapsed < MAX_LOOP
    }

    /// A trace run traces a seeded half of the cycles; the rest
    /// measure the untraced cost for the overhead figure. The choice is
    /// random, not alternating, so it cannot alias with a workload's own
    /// period (retention trims, tenant turns).
    pub fn traced(&self, cycle: u64) -> bool {
        self.trace && derive(self.seed, STREAM_TRACE, cycle).is_multiple_of(2)
    }

    pub fn sampled(&self, cycle: u64) -> bool {
        self.traced(cycle) && cycle.is_multiple_of(SAMPLE_EVERY)
    }
}

/// Cache counters: hits, misses, invalidations.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
}

impl CacheCounts {
    fn hit_ratio(&self) -> f64 {
        ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }
}

/// Per-layer counters read at the boundaries of the timed calls.
#[derive(Debug, Default)]
pub struct Counters {
    last: HashMap<QueryHandle, (CacheCounts, CacheCounts)>,
    pub plan: CacheCounts,
    pub engine: CacheCounts,
    pub ticks: u64,
    /// Rows each chain node emitted, summed over counted ticks.
    pub rows_out: BTreeMap<String, u64>,
    pub released_rows: u64,
    pub shipped_bytes: u64,
    pub replays: u64,
    pub actions: u64,
    pub stages: u64,
    pub frame_bytes: u64,
    pub decisions: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Fold in the plan-cache movement of every live handle since the
    /// last call (a handle's counts are read each cycle, so removing
    /// it loses nothing).
    pub fn read_handles(&mut self, rt: &Runtime, handles: &[QueryHandle]) {
        let mut seen = HashMap::new();
        for &h in handles {
            let Ok(stats) = rt.handle_stats(h) else {
                continue;
            };
            let plan = CacheCounts {
                hits: stats.plan.hits,
                misses: stats.plan.misses,
                invalidations: stats.plan.invalidations,
            };
            let engine = CacheCounts {
                hits: stats.engine.hits,
                misses: stats.engine.misses,
                invalidations: stats.engine.invalidations,
            };
            let (p0, e0) = self.last.get(&h).copied().unwrap_or_default();
            self.plan.hits += plan.hits.saturating_sub(p0.hits);
            self.plan.misses += plan.misses.saturating_sub(p0.misses);
            self.plan.invalidations += plan.invalidations.saturating_sub(p0.invalidations);
            self.engine.hits += engine.hits.saturating_sub(e0.hits);
            self.engine.misses += engine.misses.saturating_sub(e0.misses);
            self.engine.invalidations += engine.invalidations.saturating_sub(e0.invalidations);
            seen.insert(h, (plan, engine));
        }
        self.last = seen;
    }

    /// Forget what the handles counted so far (the timed loop starts).
    pub fn baseline(&mut self, rt: &Runtime, handles: &[QueryHandle]) {
        self.read_handles(rt, handles);
        let last = std::mem::take(&mut self.last);
        *self = Counters {
            last,
            ..Counters::default()
        };
    }

    pub fn read_outcomes(&mut self, outcomes: &[(QueryHandle, Outcome)]) {
        self.ticks += 1;
        for (_, outcome) in outcomes {
            for report in &outcome.stage_reports {
                *self.rows_out.entry(report.node.clone()).or_default() += report.rows_out as u64;
            }
            self.released_rows += outcome.result.len() as u64;
            self.shipped_bytes += outcome.traffic.total_bytes() as u64;
        }
    }

    pub fn read_replay(&mut self, outcome: &ReplayOutcome) {
        self.replays += 1;
        self.actions += outcome.actions as u64;
        self.stages += outcome.stages as u64;
        self.frame_bytes += outcome.frame_bytes as u64;
        *self.decisions.entry(outcome.decision).or_default() += 1;
    }
}

/// Runtime-wide DP and sharing counters over the timed loop.
#[derive(Debug, Default)]
pub struct RuntimeDeltas {
    /// Ticks the DP counters cover.
    pub ticks: u64,
    pub noise_draws: u64,
    pub epsilon_spent: f64,
    pub shared_plans: usize,
}

/// Durability and server counters over the timed loop (zero for the
/// in-process workloads, which run neither).
#[derive(Debug, Default)]
pub struct ServedDeltas {
    /// Ticks the durability counters cover.
    pub ticks: u64,
    pub wal_bytes: u64,
    pub wal_commits: u64,
    pub snapshots: u64,
    pub refused: u64,
    pub dedup_hits: u64,
}

/// Fill `report.layers` from its spans and the counters. `cycles` is
/// the number of timed cycles (the denominator of per-cycle figures).
pub fn fill_layers(
    report: &mut Report,
    counters: &Counters,
    runtime: &RuntimeDeltas,
    served: &ServedDeltas,
    cpu_ms: f64,
) {
    let cycles = report.cycle_ms.len() as f64;
    let ticks = counters.ticks as f64;
    let replays = counters.replays as f64;

    report.layer_span("core.runtime.tick_ms.p50", "ms", "core.runtime.tick", 0.5);
    report.layer_span("core.runtime.tick_ms.p99", "ms", "core.runtime.tick", 0.99);
    report.layer_span(
        "core.runtime.ingest_us.p50",
        "us",
        "core.runtime.ingest",
        0.5,
    );
    report.layer_span(
        "core.runtime.set_policy_us.p50",
        "us",
        "core.runtime.set_policy",
        0.5,
    );
    report.layer_span(
        "core.runtime.register_us.p50",
        "us",
        "core.runtime.register",
        0.5,
    );
    report.layer_span(
        "core.runtime.remove_us.p50",
        "us",
        "core.runtime.remove",
        0.5,
    );
    report.layer(
        "core.runtime.plan_hit_ratio",
        "ratio",
        counters.plan.hit_ratio(),
    );

    report.layer_span("sql.parse_us.p50", "us", "sql.parse", 0.5);
    report.layer_span("policy.parse_us.p50", "us", "policy.parse", 0.5);
    report.layer_span(
        "core.preprocess.rewrite_us.p50",
        "us",
        "core.preprocess.rewrite",
        0.5,
    );
    report.layer(
        "core.preprocess.actions",
        "count",
        ratio(counters.actions as f64, replays),
    );
    report.layer_span(
        "core.fragment.fragment_us.p50",
        "us",
        "core.fragment.fragment",
        0.5,
    );
    report.layer(
        "core.fragment.stages",
        "count",
        ratio(counters.stages as f64, replays),
    );

    report.layer_span("engine.compile_us.p50", "us", "engine.compile", 0.5);
    report.layer(
        "engine.plan_hit_ratio",
        "ratio",
        counters.engine.hit_ratio(),
    );
    report.layer(
        "engine.plan_invalidations",
        "count",
        counters.engine.invalidations as f64,
    );
    report.layer("engine.shared_plans", "count", runtime.shared_plans as f64);

    let total_out: u64 = counters.rows_out.values().sum();
    for (node, rows) in &counters.rows_out {
        report.layer(
            format!("nodes.rows_out.{node}"),
            "rows",
            ratio(*rows as f64, ticks),
        );
    }
    report.layer(
        "nodes.rows_out.total",
        "rows",
        ratio(total_out as f64, ticks),
    );
    report.layer(
        "nodes.useful_row_ratio",
        "ratio",
        ratio(counters.released_rows as f64, total_out as f64),
    );
    report.layer(
        "nodes.shipped_bytes_per_tick",
        "bytes",
        ratio(counters.shipped_bytes as f64, ticks),
    );
    let rescans = stage_rescans(&report.spans);
    let mut per_cycle_total: BTreeMap<u64, f64> = BTreeMap::new();
    for (node, by_cycle) in &rescans {
        let samples: Vec<f64> = by_cycle.values().copied().collect();
        for (cycle, ms) in by_cycle {
            *per_cycle_total.entry(*cycle).or_default() += ms;
        }
        report.layer(
            format!("nodes.stage_rescan_ms.{node}"),
            "ms",
            median(&samples),
        );
    }
    let totals: Vec<f64> = per_cycle_total.values().copied().collect();
    report.layer("nodes.stage_rescan_ms.total", "ms", median(&totals));

    report.layer_span(
        "core.postprocess.anon_ms.p50",
        "ms",
        "core.postprocess.anon",
        0.5,
    );
    for (kind, n) in &counters.decisions {
        report.layer(
            format!("core.postprocess.decision.{kind}"),
            "count",
            *n as f64,
        );
    }
    let dp_ticks = runtime.ticks as f64;
    report.layer(
        "core.dp.noise_draws_per_tick",
        "count",
        ratio(runtime.noise_draws as f64, dp_ticks),
    );
    report.layer("core.dp.epsilon_spent", "epsilon", runtime.epsilon_spent);

    let wal_ticks = served.ticks as f64;
    report.layer(
        "core.storage.wal_bytes_per_tick",
        "bytes",
        ratio(served.wal_bytes as f64, wal_ticks),
    );
    report.layer(
        "core.storage.wal_commits_per_tick",
        "count",
        ratio(served.wal_commits as f64, wal_ticks),
    );
    report.layer("core.storage.snapshots", "count", served.snapshots as f64);

    report.layer_span("server.encode_us.p50", "us", "server.encode", 0.5);
    report.layer_span("server.decode_us.p50", "us", "server.decode", 0.5);
    report.layer(
        "server.frame_bytes_per_cycle",
        "bytes",
        ratio(counters.frame_bytes as f64, replays),
    );
    report.layer("server.refused_ops", "count", served.refused as f64);
    report.layer("server.dedup_hits", "count", served.dedup_hits as f64);

    report.layer("process.cpu_ms_per_cycle", "ms", ratio(cpu_ms, cycles));
    let failed = ratio(report.failed as f64, report.attempted as f64);
    report.layer("process.failed_ops_ratio", "ratio", failed);
    report.add_tracing_overhead();
}

/// Per chain node, the summed `Node::execute` time of each sampled
/// cycle's replays (all registered queries), in ms.
fn stage_rescans(spans: &[Span]) -> BTreeMap<String, BTreeMap<u64, f64>> {
    let mut out: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    for span in spans {
        if let Some(node) = span.name.strip_prefix("nodes.execute.") {
            *out.entry(node.to_string())
                .or_default()
                .entry(span.cycle)
                .or_default() += span.duration_ns() as f64 / 1e6;
        }
    }
    out
}
