//! Bench regression gate: compares `BENCH_results.json`'s `mean_ns`
//! against the committed `baseline_ns` and fails (exit code 1) if any
//! `engine/*` or `end_to_end/*` entry regressed by more than the
//! allowed factor, or has a baseline but no measured mean (a bench
//! that stopped running must not pass silently). Run after a bench
//! pass, e.g.:
//!
//! ```sh
//! cargo bench --bench end_to_end && cargo run --bin bench_gate
//! ```
//!
//! `BENCH_RESULTS_PATH` overrides the results file location (same
//! convention as the vendored criterion harness).

use std::path::PathBuf;
use std::process::ExitCode;

/// An entry regresses when `mean_ns > baseline_ns * (1 + TOLERANCE)`.
const TOLERANCE: f64 = 0.25;

/// Only these benchmark groups gate the build (the engine hot paths and
/// the end-to-end pipeline; micro-groups like `parser/*` are too noisy
/// on shared CI runners).
const GATED_PREFIXES: &[&str] = &["engine/", "end_to_end/"];

fn results_path() -> PathBuf {
    if let Ok(p) = std::env::var("BENCH_RESULTS_PATH") {
        return PathBuf::from(p);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("BENCH_results.json");
        }
        if !dir.pop() {
            return PathBuf::from("BENCH_results.json");
        }
    }
}

/// Parse the line-per-entry results format written by the vendored
/// criterion harness: `"name": { "baseline_ns": …, "mean_ns": … },`.
fn parse(text: &str) -> Vec<(String, Option<f64>, Option<f64>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_string();
        let field = |tag: &str| -> Option<f64> {
            let tag = format!("\"{tag}\":");
            let at = rest.find(&tag)?;
            let tail = rest[at + tag.len()..].trim_start();
            let num: String = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            num.parse().ok()
        };
        out.push((name, field("baseline_ns"), field("mean_ns")));
    }
    out
}

fn main() -> ExitCode {
    let path = results_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut gated = 0usize;
    let mut regressions = Vec::new();
    let mut unmeasured = Vec::new();
    for (name, baseline, mean) in parse(&text) {
        if !GATED_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let Some(baseline) = baseline else { continue };
        let Some(mean) = mean else {
            unmeasured.push(name);
            continue;
        };
        gated += 1;
        let ratio = mean / baseline;
        if ratio > 1.0 + TOLERANCE {
            regressions.push((name, baseline, mean, ratio));
        }
    }
    if gated == 0 {
        eprintln!("bench_gate: no gated entries found in {} — refusing to pass", path.display());
        return ExitCode::FAILURE;
    }
    if !unmeasured.is_empty() {
        eprintln!("bench_gate: {} gated entries have a baseline_ns but no mean_ns:", unmeasured.len());
        for name in &unmeasured {
            eprintln!("  {name}");
        }
    }
    if regressions.is_empty() && unmeasured.is_empty() {
        println!(
            "bench_gate: OK — {gated} gated entries within {:.0}% of baseline ({})",
            TOLERANCE * 100.0,
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    if !regressions.is_empty() {
        eprintln!(
            "bench_gate: {} regression(s) beyond {:.0}%:",
            regressions.len(),
            TOLERANCE * 100.0
        );
    }
    for (name, baseline, mean, ratio) in regressions {
        eprintln!("  {name:<40} baseline {baseline:>14.1} ns  mean {mean:>14.1} ns  ({ratio:.2}x)");
    }
    ExitCode::FAILURE
}
