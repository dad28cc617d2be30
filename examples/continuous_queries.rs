//! Continuous queries over live sensor streams: the registration-based
//! [`Runtime`] lifecycle — register a query once, ingest batches, tick
//! all registered queries, swap a policy live — plus the §3.3 stream
//! admission gate and a windowed sensor aggregate over a bounded
//! retention window.
//!
//! Run with `cargo run --example continuous_queries`.

use paradise::core::{GateDecision, StreamGate};
use paradise::policy::StreamSettings;
use paradise::prelude::*;

fn main() {
    // --- setup: policy, chain, runtime ------------------------------
    let policy = parse_policy(FIG4_POLICY_XML).unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", policy.modules[0].clone())
        // keep at most 2000 stream rows — a long-running deployment
        // must not grow its working set forever
        .with_retention(2000);

    let mut sim = SmartRoomSim::with_config(
        42,
        SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() },
    );
    runtime.install_source("motion-sensor", "stream", sim.ubisense_positions(100)).unwrap();

    // --- register: rewrite + fragment happen ONCE, here -------------
    let query = parse_query(
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)",
    )
    .unwrap();
    let action = runtime.register("ActionFilter", &query).unwrap();
    let monitor = runtime
        .register("ActionFilter", &parse_query("SELECT x, y, z, t FROM stream").unwrap())
        .unwrap();
    println!("registered {action} (action filter) and {monitor} (monitor)");

    // --- the continuous loop: ingest a batch, tick every query ------
    for round in 1..=3 {
        runtime.ingest("motion-sensor", "stream", sim.ubisense_positions(20)).unwrap();
        let outcomes = runtime.tick().unwrap();
        let rows: Vec<usize> = outcomes.iter().map(|(_, o)| o.result.len()).collect();
        println!("tick {round}: result rows per handle (registration order) = {rows:?}");
    }
    let stats = runtime.stats();
    println!(
        "after 3 ticks: rewrite-plan cache {}/{} hits/misses, node plans {}/{} — \
         steady-state ticks recompile nothing",
        stats.plan.hits, stats.plan.misses, stats.engine.hits, stats.engine.misses,
    );

    // --- live policy update: invalidates exactly this module --------
    let stricter = parse_policy(FIG4_POLICY_XML).unwrap();
    let version = runtime.set_policy("ActionFilter", stricter.modules[0].clone());
    runtime.tick().unwrap();
    let swapped = runtime.handle_stats(action).unwrap();
    println!(
        "policy swapped to {version}: handle {action} rebuilt its rewrite \
         ({} invalidation(s), {} stale node plans purged)",
        swapped.plan.invalidations, swapped.engine.invalidations,
    );

    // --- the §3.3 stream extension: query admission -----------------
    let mut gate = StreamGate::new();
    gate.set_settings(
        "Recognizer",
        StreamSettings {
            min_query_interval_secs: Some(60.0),
            allowed_aggregation_levels: vec!["minute".into()],
        },
    );
    println!("\nquery admission under the §3.3 stream policy:");
    for (t, level) in [(0.0, "minute"), (10.0, "minute"), (61.0, "minute"), (70.0, "raw")] {
        let decision = gate.admit("Recognizer", t, Some(level));
        let verdict = match decision {
            GateDecision::Admitted => "admitted",
            GateDecision::TooFrequent { .. } => "rejected (too frequent)",
            GateDecision::LevelNotAllowed { .. } => "rejected (level not allowed)",
        };
        println!("  t={t:>5}s level={level:<7} → {verdict}");
    }

    // --- a windowed sensor aggregate (paper Table 1, E4) ------------
    // "aggregates on streams (over the last seconds)": a runtime that
    // retains only the most recent 60 readings answers the average
    // height of the readings passing the sensor's z < 2 filter over that
    // window on every tick.
    let mut window = ModulePolicy::new("HeightMonitor");
    window.attributes.push(AttributeRule::allowed("z"));
    let mut sensor = Runtime::new(ProcessingChain::apartment())
        .with_policy("HeightMonitor", window)
        .with_retention(60);
    sensor.install_source("motion-sensor", "stream", sim.ubisense_positions(60)).unwrap();
    let avg = sensor
        .register(
            "HeightMonitor",
            &parse_query("SELECT COUNT(*) AS n, AVG(z) AS avg_z FROM stream WHERE z < 2").unwrap(),
        )
        .unwrap();
    let mut last = None;
    for _ in 0..15 {
        sensor.ingest("motion-sensor", "stream", sim.ubisense_positions(20)).unwrap();
        last = sensor.tick().unwrap().into_iter().find(|(h, _)| *h == avg);
    }
    let (_, outcome) = last.expect("the handle ticks");
    let retained = sensor.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().len();
    println!(
        "\nwindowed sensor after 300 more readings: {retained} retained, of which \
         {} passed the z<2 filter with avg(z) = {}",
        outcome.result.value(0, 0),
        outcome.result.value(0, 1),
    );

    println!(
        "\nboth runtimes held at most their retention window in memory and \
         re-used every cached plan between policy changes — the \
         constant-memory execution Table 1 promises."
    );
}
