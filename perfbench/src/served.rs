//! `served_tenants`: `paradise-server` on localhost over a durable
//! runtime (WAL group commit every tick, snapshot rotation every 256
//! ticks) with one Pc node and two tenants from one process:
//!
//! * tenant A — a plain `Client` with an exact `users_policy` module;
//! * tenant B — a `RetryClient` session with the same policy plus a
//!   `DpConfig` (ε = 1 per tick, unbounded budget, clamp 0..100).
//!
//! Each tenant ingests into its own stream table, so its results
//! depend only on its own FIFO order. Cycles alternate between the
//! tenants; each is one 100-row `ingest` followed by `tick`, with
//! `OverloadPolicy::Block`. Wire encode/CRC/decode, the
//! connection→engine thread hops, WAL commit and snapshot rotation,
//! session dedup and postprocessing of the ~500-row released frame
//! dominate; the engine only folds 100-row deltas.
//!
//! Checks: tenant A's replies equal an in-process reference fed its
//! acknowledged batches; tenant B's ε spend equals ε × the ticks that
//! evaluated its handle; the directory recovers after `Server::crash`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use paradise_bench::users_policy;
use paradise_core::{ProcessingChain, QueryHandle, Runtime};
use paradise_engine::Frame;
use paradise_nodes::{Level, Node};
use paradise_policy::{policy_to_xml, DpConfig, ModulePolicy, Policy};
use paradise_server::{
    Client, ClientError, IngestAck, OverloadPolicy, RetryClient, RetryConfig, Server, ServerConfig,
    ServerStats, TickReply,
};
use paradise_sql::parse_query;

use crate::common::{
    fill_layers, Args, Counters, RuntimeDeltas, ServedDeltas, SETUPS, STREAM_BATCH, STREAM_WINDOW,
};
use crate::measure::{
    derive, frame_hash, median, peak_rss_mb, process_cpu_ms, spin_for, user_batch, Tracer,
};
use crate::replay::{replay, ReplayInput};
use crate::report::Report;

const NODE: &str = "server";
const MODULE_A: &str = "TenantA";
const MODULE_B: &str = "TenantB";
const TABLE_A: &str = "stream_a";
const TABLE_B: &str = "stream_b";
const SQL_A: &str = "SELECT uid, v FROM stream_a";
const SQL_B: &str = "SELECT uid, v FROM stream_b";
/// Retained rows per tenant table (full from the start).
const WINDOW: usize = 10_000;
/// The fixed user population every batch draws from.
const USERS: u64 = 500;
const BATCH: usize = 100;
const HAVING_SUM: i64 = 50;
const EPSILON: f64 = 1.0;
const SESSION_B: u64 = 0xB;
/// Snapshot rotation cadence of the durable runtime (its default).
const SNAPSHOT_EVERY: u64 = 256;
const TIMEOUT: Duration = Duration::from_secs(60);

fn policy_a() -> ModulePolicy {
    users_policy(HAVING_SUM)
}

fn policy_b() -> ModulePolicy {
    users_policy(HAVING_SUM).with_dp(DpConfig::new(EPSILON, f64::INFINITY).with_clamp(0.0, 100.0))
}

fn chain() -> ProcessingChain {
    ProcessingChain::new(vec![Node::new(NODE, Level::Pc)]).expect("single-node chain is valid")
}

/// The runtime every life of the durable directory is built from
/// (durability is attached last, with the same configuration).
fn runtime(seed: u64) -> Runtime {
    let mut rt = Runtime::new(chain())
        .with_retention(WINDOW)
        .with_policy(MODULE_A, policy_a())
        .with_policy(MODULE_B, policy_b());
    for (i, table) in [TABLE_A, TABLE_B].into_iter().enumerate() {
        let window = user_batch(derive(seed, STREAM_WINDOW, i as u64), WINDOW, USERS);
        rt.install_source(NODE, table, window)
            .expect("the server node exists");
    }
    rt
}

fn batch(seed: u64, k: u64) -> Frame {
    user_batch(derive(seed, STREAM_BATCH, k), BATCH, USERS)
}

/// Tenant of cycle `k`: A on even cycles, B on odd ones.
fn is_a(k: u64) -> bool {
    k.is_multiple_of(2)
}

/// The live server and both tenants' connections.
struct Served {
    server: Server,
    a: Client,
    b: RetryClient,
    dir: PathBuf,
    /// Ticks served since the server started (each evaluates B).
    ticks: u64,
    /// Tenant A's reply hash of the warm cycle 0.
    warm_a: u64,
    attempted: u64,
    failed: u64,
}

/// What one cycle returned to its tenant.
struct CycleOut {
    reply: Option<TickReply>,
    tick_ms: f64,
}

impl Served {
    fn count<T>(&mut self, r: Result<T, ClientError>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|_| self.failed += 1).ok()
    }

    fn cycle(&mut self, k: u64, batch: &Frame, tr: &mut Tracer) -> CycleOut {
        let (table, a) = if is_a(k) {
            (TABLE_A, true)
        } else {
            (TABLE_B, false)
        };
        let ack = tr.time("server.ingest_rtt", || {
            if a {
                self.a.ingest(NODE, table, batch.clone())
            } else {
                self.b.ingest(NODE, table, batch)
            }
        });
        if let Some(IngestAck::Overloaded { .. }) = self.count(ack) {
            self.failed += 1;
        }
        let t0 = Instant::now();
        let reply = tr.time("server.tick_rtt", || {
            if a {
                self.a.tick()
            } else {
                self.b.tick()
            }
        });
        let tick_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reply = self.count(reply);
        if let Some(reply) = &reply {
            self.ticks += 1;
            let refused =
                reply.results.iter().filter(|(_, r)| r.is_err()).count() + reply.deferred.len();
            self.failed += refused as u64;
        }
        CycleOut { reply, tick_ms }
    }

    fn stats(&mut self) -> Result<(ServerStats, Vec<(String, u64)>), String> {
        let reply = self.a.stats().map_err(|e| e.to_string())?;
        Ok((reply.server, reply.counters))
    }
}

/// Durability counters polled after every cycle of a traced run. The
/// log's byte and commit counts restart with each snapshot generation,
/// so they are summed poll by poll.
struct WalPoll {
    bytes: u64,
    commits: u64,
    last_bytes: u64,
    last_commits: u64,
    snapshots: u64,
    /// Tick round trips during which a snapshot was written.
    rotation_ms: Vec<f64>,
}

impl WalPoll {
    fn new(counters: &[(String, u64)]) -> WalPoll {
        WalPoll {
            bytes: 0,
            commits: 0,
            last_bytes: counter(counters, "runtime_wal_bytes"),
            last_commits: counter(counters, "runtime_wal_commits"),
            snapshots: counter(counters, "runtime_snapshots"),
            rotation_ms: Vec::new(),
        }
    }

    fn poll(&mut self, counters: &[(String, u64)], tick_ms: f64) {
        let since = |now: u64, last: u64| if now >= last { now - last } else { now };
        let (bytes, commits) = (
            counter(counters, "runtime_wal_bytes"),
            counter(counters, "runtime_wal_commits"),
        );
        self.bytes += since(bytes, self.last_bytes);
        self.commits += since(commits, self.last_commits);
        (self.last_bytes, self.last_commits) = (bytes, commits);
        let snapshots = counter(counters, "runtime_snapshots");
        if snapshots > self.snapshots {
            self.rotation_ms.push(tick_ms);
        }
        self.snapshots = snapshots;
    }
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn refused(s: &ServerStats) -> u64 {
    s.ingest_shed
        + s.ingest_block_timeouts
        + s.ingest_rate_limited
        + s.admission_rejected
        + s.handles_quarantined
        + s.ingest_deferred_errors
}

/// Build both windows, attach durability in a fresh directory, start
/// the server, connect and register both tenants, and run one warm
/// cycle each (cycles 0 and 1).
fn setup(seed: u64, dir: &Path, tr: &mut Tracer) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let rt = runtime(seed).durable(dir).map_err(|e| e.to_string())?;
    let server = Server::start(rt, ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut a = Client::connect(addr).map_err(|e| e.to_string())?;
    a.set_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
    a.hello(
        OverloadPolicy::Block {
            deadline: Duration::from_secs(30),
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    a.register(MODULE_A, SQL_A).map_err(|e| e.to_string())?;
    let mut config = RetryConfig::new(SESSION_B);
    config.request_timeout = TIMEOUT;
    config.policy = OverloadPolicy::Block {
        deadline: Duration::from_secs(30),
    };
    let mut b = RetryClient::connect(addr, config).map_err(|e| e.to_string())?;
    b.register(MODULE_B, SQL_B).map_err(|e| e.to_string())?;
    let mut s = Served {
        server,
        a,
        b,
        dir: dir.to_path_buf(),
        ticks: 0,
        warm_a: 0,
        attempted: 0,
        failed: 0,
    };
    for k in 0..2 {
        let out = s.cycle(k, &batch(seed, k), tr);
        if is_a(k) {
            s.warm_a = out.reply.as_ref().map_or(0, a_hash);
        }
    }
    if s.failed > 0 {
        return Err("set-up operation failed".into());
    }
    s.attempted = 0;
    Ok((s, start.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = args
        .out_dir
        .join("scratch")
        .join(format!("served-{}", std::process::id()));
    let result = run_in(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, scratch: &Path) -> Result<Report, String> {
    let seed = args.seed;
    let mut tr = Tracer::new();
    let mut report = Report {
        workload: "served_tenants",
        seed,
        trace: args.trace,
        ..Report::default()
    };
    report.rows_per_cycle = BATCH as u64;

    let mut live: Option<Served> = None;
    for n in 0..SETUPS {
        if let Some(old) = live.take() {
            drop((old.a, old.b));
            drop(old.server.shutdown());
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let (s, secs) = setup(seed, &scratch.join(format!("setup-{n}")), &mut tr)?;
        report.setup_s.push(secs);
        live = Some(s);
    }
    let mut s = live.expect("at least one set-up ran");

    // Tenant A's batches and reply hashes, for the reference.
    let mut a_cycles: Vec<(u64, u64)> = vec![(0, s.warm_a)];
    let (stats0, counters0) = s.stats()?;
    let cpu0 = process_cpu_ms();
    let mut wal = WalPoll::new(&counters0);
    let start = Instant::now();
    let mut k = 1u64;
    while args.more(k - 1, start.elapsed()) {
        k += 1;
        let batch = batch(seed, k);
        let traced = args.traced(k);
        tr.set(traced, k);
        let t0 = Instant::now();
        let c0 = process_cpu_ms();
        let cycle_span = tr.begin("cycle");
        let out = s.cycle(k, &batch, &mut tr);
        if args.delay > 0.0 {
            spin_for(t0.elapsed().mul_f64(args.delay));
        }
        tr.end(cycle_span);
        report.cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.cycle_cpu_ms.push(process_cpu_ms() - c0);
        report.cycle_traced.push(traced);
        tr.set(false, k);
        record(&mut report, &mut a_cycles, k, &out);
        if args.trace {
            wal.poll(&s.stats()?.1, out.tick_ms);
        }
    }
    let cpu = process_cpu_ms() - cpu0;
    let (stats1, counters1) = s.stats()?;
    report.attempted = s.attempted;
    report.failed = s.failed;

    // Untimed tenant-A cycles until the log holds half a snapshot
    // generation, so every run recovers the same amount of WAL.
    while s.ticks % SNAPSHOT_EVERY != SNAPSHOT_EVERY / 2 {
        k += if is_a(k + 1) { 1 } else { 2 };
        let out = s.cycle(k, &batch(seed, k), &mut Tracer::new());
        a_cycles.push((k, out.reply.as_ref().map_or(0, a_hash)));
    }
    check_epsilon(&mut s, &mut report)?;
    report.peak_rss_mb = peak_rss_mb();
    let dir = s.dir.clone();
    s.server.crash();
    drop((s.a, s.b));

    let (recover_s, replayed) = recover(seed, &dir, &mut report)?;
    report.extra.push(("recover_s".into(), recover_s, "s"));
    let counters = check_tenant_a(args, seed, &a_cycles, &mut tr, &mut report)?;
    if args.trace {
        let delta = |name: &str| counter(&counters1, name) - counter(&counters0, name);
        let ticks = report.cycle_ms.len() as u64;
        let served = ServedDeltas {
            ticks,
            wal_bytes: wal.bytes,
            wal_commits: wal.commits,
            snapshots: delta("runtime_snapshots"),
            refused: refused(&stats1) - refused(&stats0),
            dedup_hits: stats1.dedup_hits - stats0.dedup_hits,
        };
        let runtime = RuntimeDeltas {
            ticks,
            noise_draws: delta("runtime_dp_noise_draws"),
            epsilon_spent: delta("runtime_dp_epsilon_spent_micro") as f64 / 1e6,
            shared_plans: counter(&counters1, "runtime_shared_plans") as usize,
        };
        report.spans = tr.spans().to_vec();
        fill_layers(&mut report, &counters, &runtime, &served, cpu);
        report.layer_span("server.ingest_rtt_ms.p50", "ms", "server.ingest_rtt", 0.5);
        report.layer_span("server.tick_rtt_ms.p50", "ms", "server.tick_rtt", 0.5);
        report.layer_span("server.tick_rtt_ms.p99", "ms", "server.tick_rtt", 0.99);
        report.layer(
            "core.storage.rotation_tick_ms",
            "ms",
            median(&wal.rotation_ms),
        );
        report.layer("core.storage.replay_ms", "ms", recover_s * 1e3);
        report.layer("core.storage.replayed_records", "count", replayed as f64);
    }
    Ok(report)
}

fn a_hash(reply: &TickReply) -> u64 {
    match reply.results.first() {
        Some((_, Ok(frame))) => frame_hash(frame),
        _ => 0,
    }
}

/// Book one timed cycle's reply: released bytes, and tenant A's hash.
fn record(report: &mut Report, a_cycles: &mut Vec<(u64, u64)>, k: u64, out: &CycleOut) {
    report.ticks += 1;
    let Some(reply) = &out.reply else {
        if is_a(k) {
            a_cycles.push((k, 0));
        }
        return;
    };
    report.released_bytes += reply
        .results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|f| f.size_bytes() as u64)
        .sum::<u64>();
    if is_a(k) {
        a_cycles.push((k, a_hash(reply)));
    }
}

/// Tenant B's module must have spent exactly ε for every tick that
/// evaluated its handle — all ticks since it registered.
fn check_epsilon(s: &mut Served, report: &mut Report) -> Result<(), String> {
    let (stats, counters) = s.stats()?;
    let spent = counter(&counters, "runtime_dp_epsilon_spent_micro");
    let want = (EPSILON * 1e6) as u64 * s.ticks;
    if spent != want {
        report.mismatches.push(format!(
            "tenant B spent {spent} µε over {} ticks; ε × ticks is {want} µε",
            s.ticks
        ));
    }
    if stats.ticks_served != s.ticks {
        report.mismatches.push(format!(
            "server served {} ticks, clients saw {}",
            stats.ticks_served, s.ticks
        ));
    }
    Ok(())
}

/// Reopen the crashed directory. Returns (seconds, replayed WAL
/// records).
fn recover(seed: u64, dir: &Path, report: &mut Report) -> Result<(f64, u64), String> {
    let rt = runtime(seed);
    let t0 = Instant::now();
    let rt = rt
        .durable(dir)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let replayed = rt.durability_stats().map_or(0, |d| d.replayed);
    // tenant A's connection-scoped handle may die with its socket;
    // tenant B's named-session registration must survive the crash
    if rt.session_registrations(SESSION_B).len() != 1 {
        report
            .mismatches
            .push("recovery lost tenant B's session registration".into());
    }
    Ok((secs, replayed))
}

/// Feed tenant A's acknowledged batches to an in-process runtime and
/// compare every reply bitwise. In a traced run this is also where the
/// `core.runtime` spans and the decomposed replay of this workload are
/// taken (the served runtime's calls happen on the engine thread).
fn check_tenant_a(
    args: &Args,
    seed: u64,
    a_cycles: &[(u64, u64)],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Counters, String> {
    let mut rt = Runtime::new(chain()).with_retention(WINDOW);
    let window = user_batch(derive(seed, STREAM_WINDOW, 0), WINDOW, USERS);
    rt.install_source(NODE, TABLE_A, window)
        .map_err(|e| e.to_string())?;
    tr.set(args.trace, 0);
    tr.time("core.runtime.set_policy", || {
        rt.set_policy(MODULE_A, policy_a())
    });
    let query = tr
        .time("sql.parse", || parse_query(SQL_A))
        .map_err(|e| e.to_string())?;
    let handle: QueryHandle = tr
        .time("core.runtime.register", || rt.register(MODULE_A, &query))
        .map_err(|e| e.to_string())?;
    tr.set(false, 0);
    let xml = policy_to_xml(&Policy::single(policy_a()));
    let mut counters = Counters::default();
    counters.baseline(&rt, &[handle]);
    for &(k, want) in a_cycles {
        let batch = batch(seed, k);
        tr.set(args.traced(k), k);
        let ingested = tr.time("core.runtime.ingest", || {
            rt.ingest(NODE, TABLE_A, batch.clone())
        });
        let outcomes = tr.time("core.runtime.tick", || rt.tick());
        tr.set(false, k);
        let got = match (ingested, outcomes) {
            (Ok(()), Ok(outcomes)) => outcomes,
            (Err(e), _) | (_, Err(e)) => return Err(format!("reference failed at cycle {k}: {e}")),
        };
        if args.trace {
            counters.read_handles(&rt, &[handle]);
            counters.read_outcomes(&got);
        }
        let hash = got.first().map_or(0, |(_, o)| frame_hash(&o.result));
        if hash != want {
            report.mismatches.push(format!(
                "served_tenants cycle {k}: tenant A reply hash {want:x} differs from the in-process reference {hash:x}"
            ));
            if report.mismatches.len() >= 5 {
                break;
            }
        }
        if args.sampled(k) {
            let released: Vec<Frame> = got.iter().map(|(_, o)| o.result.clone()).collect();
            let input = ReplayInput {
                sql: SQL_A,
                policy_xml: &xml,
                module: MODULE_A,
                chain: rt.chain(),
                node: NODE,
                table: TABLE_A,
                batch: &batch,
                released: &released,
                churn: false,
            };
            tr.set(true, k);
            let outcome = replay(tr, &input);
            tr.set(false, k);
            match outcome {
                Ok(outcome) => counters.read_replay(&outcome),
                Err(e) => report
                    .mismatches
                    .push(format!("decomposed replay failed: {e}")),
            }
        }
    }
    tr.set(args.trace, 0);
    tr.time("core.runtime.remove", || rt.remove_query(handle))
        .map_err(|e| e.to_string())?;
    tr.set(false, 0);
    Ok(counters)
}
