//! The two in-process workloads over the apartment chain and the
//! Figure 4 `ActionFilter` policy:
//!
//! * `paper_stream` — the §4.2 scenario: a full 100k-row window, both
//!   paper queries registered once, and each cycle one 1k-row
//!   meeting-room `ingest` followed by `tick`. Delta-path work in
//!   `engine`, `nodes` and `core.runtime` dominates; every 25 %
//!   retention overshoot puts a whole-state rebuild into p99; plan
//!   caches always hit.
//! * `policy_churn` — a 10k-row window and 100-row batches, but each
//!   cycle also parses and installs the next policy (Figure 4 exact,
//!   then Figure 4 with `<dp>`), parses and registers one paper query
//!   and removes the one registered the cycle before. This is the
//!   write side of the plan caches: every tick misses the rewrite
//!   cache, rebuilds state and alternates exact and noisy finalize.
//!
//! Both are checked bitwise against a `with_incremental(false)`
//! reference that receives the identical operation sequence after
//! the timed loop.

use std::time::Instant;

use paradise_bench::{PAPER_FLAT, PAPER_ORIGINAL};
use paradise_core::{Outcome, ProcessingChain, QueryHandle, Runtime};
use paradise_engine::Frame;
use paradise_nodes::{SmartRoomConfig, SmartRoomSim};
use paradise_policy::{parse_policy, policy_to_xml, DpConfig, FIG4_POLICY_XML};
use paradise_sql::parse_query;

use crate::common::{
    fill_layers, Args, Counters, RuntimeDeltas, ServedDeltas, SETUPS, STREAM_WINDOW,
};
use crate::measure::{derive, frame_hash, peak_rss_mb, process_cpu_ms, spin_for, Tracer};
use crate::replay::{replay, ReplayInput};
use crate::report::Report;

const MODULE: &str = "ActionFilter";
const NODE: &str = "motion-sensor";
const TABLE: &str = "stream";
/// Tracked persons in the meeting room: rows = persons × steps. A
/// hundred independent walkers keep the per-tick work (groups touched,
/// dwell phases passing the policy) the same from seed to seed.
const PERSONS: usize = 100;
const QUERIES: [&str; 2] = [PAPER_FLAT, PAPER_ORIGINAL];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    PaperStream,
    PolicyChurn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PaperStream => "paper_stream",
            Kind::PolicyChurn => "policy_churn",
        }
    }

    /// Retained window, in steps of `PERSONS` rows.
    fn window_steps(self) -> usize {
        match self {
            Kind::PaperStream => 1_000,
            Kind::PolicyChurn => 100,
        }
    }

    /// Per-step chance that a person switches between walking and
    /// standing. `paper_stream` uses the paper benches' 0.003 (mean
    /// dwell ≈ 333 steps, a tenth of its window). `policy_churn`'s
    /// window is only 100 steps, so at that rate a 10 s run sees just a
    /// few dwell periods and its cost follows the seed's trajectory;
    /// the simulator's default 0.01 (mean dwell ≈ 100 steps, still
    /// long enough to clear `SUM(z) > 100`) mixes 3× faster.
    fn switch_probability(self) -> f64 {
        match self {
            Kind::PaperStream => 0.003,
            Kind::PolicyChurn => SmartRoomConfig::default().switch_probability,
        }
    }

    fn batch_steps(self) -> usize {
        match self {
            Kind::PaperStream => 10,
            Kind::PolicyChurn => 1,
        }
    }

    /// The reference compares every this-many-th cycle. A rescan of
    /// the 100k window costs ~20 ms, so `paper_stream` checks a sample;
    /// `policy_churn` must tick its reference every cycle anyway (noise
    /// is seeded from the ledger sequence), so it checks them all.
    fn check_every(self) -> u64 {
        match self {
            Kind::PaperStream => 25,
            Kind::PolicyChurn => 1,
        }
    }
}

/// The two policy documents `policy_churn` alternates between.
struct Policies {
    exact: String,
    noisy: String,
}

impl Policies {
    fn new() -> Policies {
        let mut policy = parse_policy(FIG4_POLICY_XML).expect("Figure 4 policy parses");
        policy.modules[0].dp = Some(DpConfig::new(1.0, f64::INFINITY).with_clamp(-50.0, 50.0));
        Policies {
            exact: FIG4_POLICY_XML.to_string(),
            noisy: policy_to_xml(&policy),
        }
    }
}

/// The meeting-room sensor stream of one run. The window and every
/// batch come from one continuing simulation, so the working set —
/// dwell phases long enough to pass the policy's `SUM(z) > 100` —
/// stays the same over the whole run instead of ageing out with the
/// initial window.
struct Room {
    sim: SmartRoomSim,
    batch_steps: usize,
}

impl Room {
    /// Returns the room and the full initial window.
    fn new(kind: Kind, seed: u64) -> (Room, Frame) {
        let config = SmartRoomConfig {
            persons: PERSONS,
            switch_probability: kind.switch_probability(),
            ..Default::default()
        };
        let mut sim = SmartRoomSim::with_config(derive(seed, STREAM_WINDOW, 0), config);
        let window = sim.ubisense_positions(kind.window_steps());
        (
            Room {
                sim,
                batch_steps: kind.batch_steps(),
            },
            window,
        )
    }

    fn batch(&mut self) -> Frame {
        self.sim.ubisense_positions(self.batch_steps)
    }
}

/// The inputs of cycle `i`.
struct CycleOps<'a> {
    batch: Frame,
    /// `policy_churn` only: the policy to install and query to register.
    churn: Option<(&'a str, &'static str)>,
}

/// `policy_churn` walks all four (policy, query) pairs every four
/// cycles, so every run sees the same mix.
fn cycle_ops<'a>(kind: Kind, i: u64, room: &mut Room, policies: &'a Policies) -> CycleOps<'a> {
    let churn = (kind == Kind::PolicyChurn).then(|| {
        let xml = if i.is_multiple_of(2) {
            policies.exact.as_str()
        } else {
            policies.noisy.as_str()
        };
        (xml, QUERIES[(i / 2 % 2) as usize])
    });
    CycleOps {
        batch: room.batch(),
        churn,
    }
}

/// One runtime and the handles registered on it.
struct Session {
    rt: Runtime,
    room: Room,
    handles: Vec<QueryHandle>,
    attempted: u64,
    failed: u64,
}

impl Session {
    fn count<T, E>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|_| self.failed += 1).ok()
    }

    /// Run one cycle's operations; returns the tick's outcomes (`None`
    /// if the tick was skipped or failed).
    fn cycle(
        &mut self,
        ops: &CycleOps<'_>,
        tick: bool,
        tr: &mut Tracer,
    ) -> Option<Vec<(QueryHandle, Outcome)>> {
        if let Some((xml, sql)) = ops.churn {
            let policy = tr.time("policy.parse", || parse_policy(xml));
            if let Some(mut policy) = self.count(policy) {
                let module = policy.modules.remove(0);
                tr.time("core.runtime.set_policy", || {
                    self.rt.set_policy(MODULE, module)
                });
            }
            let query = tr.time("sql.parse", || parse_query(sql));
            if let Some(query) = self.count(query) {
                let handle = tr.time("core.runtime.register", || self.rt.register(MODULE, &query));
                if let Some(handle) = self.count(handle) {
                    self.handles.push(handle);
                }
            }
            if self.handles.len() > 1 {
                let old = self.handles.remove(0);
                let removed = tr.time("core.runtime.remove", || self.rt.remove_query(old));
                self.count(removed);
            }
        }
        let batch = ops.batch.clone();
        let ingested = tr.time("core.runtime.ingest", || self.rt.ingest(NODE, TABLE, batch));
        self.count(ingested);
        if !tick {
            return None;
        }
        let outcomes = tr.time("core.runtime.tick", || self.rt.tick());
        self.count(outcomes)
    }

    /// Deregister everything (a discarded set-up leaves nothing behind).
    fn retire(mut self, tr: &mut Tracer) {
        for h in std::mem::take(&mut self.handles) {
            let removed = tr.time("core.runtime.remove", || self.rt.remove_query(h));
            removed.expect("a live handle deregisters");
        }
    }
}

/// Build the window, install the policy, register, compile (first
/// tick) and run the warm cycle 0. Returns the session and the
/// set-up time.
fn setup(
    kind: Kind,
    seed: u64,
    incremental: bool,
    policies: &Policies,
    tr: &mut Tracer,
) -> Result<(Session, f64), String> {
    let start = Instant::now();
    let (room, window) = Room::new(kind, seed);
    let rt = Runtime::new(ProcessingChain::apartment())
        .with_retention(window.len())
        .with_incremental(incremental);
    let mut s = Session {
        rt,
        room,
        handles: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let policy = tr
        .time("policy.parse", || parse_policy(&policies.exact))
        .map_err(|e| e.to_string())?;
    let module = policy
        .modules
        .into_iter()
        .next()
        .ok_or("Figure 4 has a module")?;
    tr.time("core.runtime.set_policy", || {
        s.rt.set_policy(MODULE, module)
    });
    s.rt.install_source(NODE, TABLE, window)
        .map_err(|e| e.to_string())?;
    let initial: &[&str] = match kind {
        Kind::PaperStream => &QUERIES,
        Kind::PolicyChurn => &QUERIES[..1],
    };
    for sql in initial {
        let query = tr
            .time("sql.parse", || parse_query(sql))
            .map_err(|e| e.to_string())?;
        let handle = tr.time("core.runtime.register", || s.rt.register(MODULE, &query));
        s.handles.push(handle.map_err(|e| e.to_string())?);
    }
    s.rt.tick().map_err(|e| e.to_string())?;
    let ops = cycle_ops(kind, 0, &mut s.room, policies);
    s.cycle(&ops, true, tr).ok_or("warm cycle failed")?;
    if s.failed > 0 {
        return Err("set-up operation failed".into());
    }
    s.attempted = 0;
    Ok((s, start.elapsed().as_secs_f64()))
}

pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let policies = Policies::new();
    let mut tr = Tracer::new();
    let mut report = Report {
        workload: kind.name(),
        seed,
        trace: args.trace,
        ..Report::default()
    };
    report.rows_per_cycle = (PERSONS * kind.batch_steps()) as u64;

    tr.set(args.trace, 0);
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(old) = session.take() {
            Session::retire(old, &mut tr);
        }
        let (s, secs) = setup(kind, seed, true, &policies, &mut tr)?;
        report.setup_s.push(secs);
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up ran");
    tr.set(false, 0);

    let mut counters = Counters::default();
    counters.baseline(&s.rt, &s.handles);
    let stats0 = s.rt.stats();
    let cpu0 = process_cpu_ms();
    let mut checks: Vec<(u64, Vec<u64>)> = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while args.more(i, start.elapsed()) {
        i += 1;
        let ops = cycle_ops(kind, i, &mut s.room, &policies);
        let traced = args.traced(i);
        tr.set(traced, i);
        let t0 = Instant::now();
        let c0 = process_cpu_ms();
        let cycle_span = tr.begin("cycle");
        let outcomes = s.cycle(&ops, true, &mut tr);
        if args.delay > 0.0 {
            spin_for(t0.elapsed().mul_f64(args.delay));
        }
        tr.end(cycle_span);
        report.cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.cycle_cpu_ms.push(process_cpu_ms() - c0);
        report.cycle_traced.push(traced);
        tr.set(false, i);

        let outcomes = outcomes.unwrap_or_default();
        report.ticks += 1;
        report.released_bytes += outcomes
            .iter()
            .map(|(_, o)| o.result.size_bytes() as u64)
            .sum::<u64>();
        if i.is_multiple_of(kind.check_every()) {
            checks.push((
                i,
                outcomes
                    .iter()
                    .map(|(_, o)| frame_hash(&o.result))
                    .collect(),
            ));
        }
        if args.trace {
            counters.read_handles(&s.rt, &s.handles);
            counters.read_outcomes(&outcomes);
        }
        if args.sampled(i) {
            tr.set(true, i);
            sample(
                kind,
                &s,
                &ops,
                &outcomes,
                &policies,
                &mut tr,
                &mut counters,
                &mut report,
            );
            tr.set(false, i);
        }
    }
    let cpu = process_cpu_ms() - cpu0;
    report.peak_rss_mb = peak_rss_mb();
    report.attempted = s.attempted;
    report.failed = s.failed;
    let stats = s.rt.stats();
    let deltas = RuntimeDeltas {
        ticks: report.ticks,
        noise_draws: stats.dp_noise_draws - stats0.dp_noise_draws,
        epsilon_spent: (stats.dp_epsilon_spent_micro - stats0.dp_epsilon_spent_micro) as f64 / 1e6,
        shared_plans: stats.shared_plans,
    };
    drop(s);

    check_against_reference(kind, seed, i, &checks, &policies, &mut report)?;
    if args.trace {
        report.spans = tr.spans().to_vec();
        fill_layers(
            &mut report,
            &counters,
            &deltas,
            &ServedDeltas::default(),
            cpu,
        );
    }
    Ok(report)
}

/// The decomposed replay of every registered query of a sampled cycle.
#[allow(clippy::too_many_arguments)]
fn sample(
    kind: Kind,
    s: &Session,
    ops: &CycleOps<'_>,
    outcomes: &[(QueryHandle, Outcome)],
    policies: &Policies,
    tr: &mut Tracer,
    counters: &mut Counters,
    report: &mut Report,
) {
    let released: Vec<Frame> = outcomes.iter().map(|(_, o)| o.result.clone()).collect();
    let queries: Vec<(&str, &str)> = match ops.churn {
        Some((xml, sql)) => vec![(xml, sql)],
        None => QUERIES
            .iter()
            .map(|&sql| (policies.exact.as_str(), sql))
            .collect(),
    };
    for (xml, sql) in queries {
        let input = ReplayInput {
            sql,
            policy_xml: xml,
            module: MODULE,
            chain: s.rt.chain(),
            node: NODE,
            table: TABLE,
            batch: &ops.batch,
            released: &released,
            churn: kind == Kind::PolicyChurn,
        };
        match replay(tr, &input) {
            Ok(outcome) => counters.read_replay(&outcome),
            Err(e) => report
                .mismatches
                .push(format!("decomposed replay of {sql:?} failed: {e}")),
        }
    }
}

/// Replay the identical operation sequence on a full-rescan runtime
/// and compare the released frames bitwise at the checked cycles.
fn check_against_reference(
    kind: Kind,
    seed: u64,
    cycles: u64,
    checks: &[(u64, Vec<u64>)],
    policies: &Policies,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let (mut reference, _) = setup(kind, seed, false, policies, &mut tr)?;
    let mut next = checks.iter().peekable();
    for i in 1..=cycles {
        let ops = cycle_ops(kind, i, &mut reference.room, policies);
        let expected = next.next_if(|(at, _)| *at == i);
        let tick = kind == Kind::PolicyChurn || expected.is_some();
        let outcomes = reference.cycle(&ops, tick, &mut tr);
        let Some((_, got)) = expected else { continue };
        let want: Vec<u64> = outcomes
            .unwrap_or_default()
            .iter()
            .map(|(_, o)| frame_hash(&o.result))
            .collect();
        if *got != want {
            report.mismatches.push(format!(
                "{} cycle {i}: released frame hashes {got:x?} differ from the full-rescan reference {want:x?}",
                kind.name()
            ));
            if report.mismatches.len() >= 5 {
                break;
            }
        }
    }
    if reference.failed > 0 {
        report
            .mismatches
            .push(format!("reference failed {} operations", reference.failed));
    }
    Ok(())
}
