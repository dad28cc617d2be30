//! Physical plans: compile a [`Query`] + catalog schemas **once** into
//! a reusable operator DAG, then execute it on every stream tick
//! without touching the AST again.
//!
//! Compilation pre-resolves every name to a column ordinal, lowers
//! expressions to flat postorder instruction buffers
//! ([`program::ExprProgram`]), and pre-selects strategies (hash vs.
//! nested-loop join candidates, projected-vs-input `ORDER BY` key
//! sources, the window/aggregate kinds). Execution then runs
//! column-at-a-time kernels — plus partition-parallel grouped
//! aggregation, window computation and filter/select gathers over the
//! vendored [`minipool`] scoped thread pool (sized by the
//! `PARADISE_THREADS` knob; serial when 1).
//!
//! Every query shape compiles, `UNION` chains included; only a missing
//! base table fails [`Executor::compile`]. Errors the row-at-a-time
//! reference raises while evaluating rows (an unknown column or cast
//! target, a bad aggregate call, …) are deferred into the plan and
//! surface at run time, at the same point and only when a row is
//! actually evaluated. The equivalence suites pin
//! `compiled == row-at-a-time` (results and errors) over whole corpora.
//!
//! A [`PlanCache`] maps `(query AST, schema fingerprint)` to compiled
//! plans with hit/miss/invalidation counters; `paradise-nodes` keeps
//! one per chain node so steady-state continuous-query ticks reuse
//! plans, and schema changes at the source invalidate them.

mod incremental;
mod program;
pub(crate) mod sharded;

pub use incremental::{DeltaInput, IncrementalPlan, IncrementalRun, IncrementalState};
pub use program::ExprProgram;
pub use sharded::ShardSpec;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use minipool::ThreadPool;
use paradise_sql::ast::{
    Expr, FunctionCall, JoinKind, Query, SelectItem, SortOrder, TableRef,
};

use crate::catalog::Catalog;
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::eval::{Batch, EvalContext};
use crate::exec::aggregate::{Accumulator, AggKind};
use crate::exec::{
    self, check_strict_grouping, collect_aggregate_calls, distinct_indices, equi_join_columns,
    finalise_types, order_key_source, query_aggregates, replace_aggregate_calls, window, Executor,
    KeySource, ProjPlan,
};
use crate::frame::Frame;
use crate::schema::{Column, Schema};
use crate::value::{DataType, GroupKey, Value};

/// Minimum row count before an operator fans work out to the pool;
/// below this the scope round-trip costs more than it saves.
const PARALLEL_MIN_ROWS: usize = 4096;

// ---------------------------------------------------------------------
// hashing: FxHash for group keys, FNV for AST / schema fingerprints
// ---------------------------------------------------------------------

/// The Firefox hash: a fast non-cryptographic hasher for the engine's
/// internal hash maps (grouping, plan-cache keys). Not DoS-hardened —
/// never use it for attacker-controlled keys that must not collide.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FNV-1a accumulator exposed as a `fmt::Write` sink, so ASTs and
/// schemas hash through their `Display` impls without allocating.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> Self {
        FnvWriter(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Structural key of a query: an FNV-1a hash of its canonical SQL
/// rendering, computed without materialising the string. Callers that
/// must rule out collisions compare the stored AST on a key hit.
pub fn ast_key(query: &Query) -> u64 {
    let mut h = FnvWriter::new();
    let _ = write!(h, "{query}");
    h.0
}

/// Hash one schema: column names, qualifiers and declared types, in
/// order. Ordinal resolution inside compiled plans depends exactly on
/// this, so equal fingerprints imply compiled ordinals stay valid.
pub fn schema_hash(schema: &Schema) -> u64 {
    let mut h = FnvWriter::new();
    for c in schema.columns() {
        h.write_bytes(c.name.as_bytes());
        h.write_bytes(&[0xfe]);
        if let Some(s) = &c.source {
            h.write_bytes(s.as_bytes());
        }
        h.write_bytes(&[0xff]);
        h.write_bytes(c.data_type.name().as_bytes());
    }
    h.0
}

/// Fingerprint the schemas of `tables` as found in `catalog` (missing
/// tables hash as absent). A compiled plan is valid for execution as
/// long as this fingerprint matches the one captured at compile time.
pub fn schema_fingerprint(catalog: &Catalog, tables: &[String]) -> u64 {
    let mut h = FnvWriter::new();
    for t in tables {
        h.write_bytes(t.as_bytes());
        match catalog.get(t) {
            Ok(frame) => h.write_u64_mix(schema_hash(&frame.schema)),
            Err(_) => h.write_bytes(b"<absent>"),
        }
    }
    h.0
}

impl FnvWriter {
    fn write_u64_mix(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// plan data model
// ---------------------------------------------------------------------

/// A query compiled against a catalog's schemas: the reusable artifact
/// of the compile-once / run-many contract.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    root: PNode,
    tables: Vec<String>,
    fingerprint: u64,
}

impl CompiledPlan {
    /// The schema fingerprint this plan was compiled against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Base tables the plan reads (inputs of the fingerprint).
    pub fn tables(&self) -> &[String] {
        &self.tables
    }
}

/// One operator of the physical DAG.
#[derive(Debug, Clone)]
enum PNode {
    /// `SELECT` without `FROM`: one empty row.
    Unit,
    /// Base-table scan; shares the catalog buffers zero-copy.
    Scan {
        table: String,
        source: String,
    },
    /// Derived table (`FROM (SELECT …) [AS alias]`).
    Derived {
        input: Box<PNode>,
        alias: Option<String>,
    },
    /// Two-sided join with the pre-selected equi-key candidate.
    Join {
        left: Box<PNode>,
        right: Box<PNode>,
        kind: JoinKind,
        on: Option<Expr>,
        equi: Option<(usize, usize)>,
    },
    /// One `SELECT` block: filter + (plain | aggregation) body.
    Block(Box<BlockPlan>),
    /// A `UNION [ALL]` chain: the first branch, then each further
    /// branch with its `ALL` flag. The result carries the first
    /// branch's schema.
    Union {
        first: Box<PNode>,
        rest: Vec<(bool, PNode)>,
    },
}

#[derive(Debug, Clone)]
struct BlockPlan {
    input: PNode,
    filter: Option<ExprProgram>,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    Plain(Box<PlainBody>),
    Agg(Box<AggBody>),
    Fail(Box<FailBody>),
}

/// A block the reference rejects once it runs past its filter: a static
/// error (`SELECT *` with aggregation, an ungrouped column under strict
/// `GROUP BY`, an unknown window function, an unknown aggregate or a
/// wrong argument count) kept in the plan so it surfaces where
/// row-at-a-time execution raises it.
#[derive(Debug, Clone)]
struct FailBody {
    /// Grouping keys of an aggregation whose calls are invalid: the
    /// reference raises at the first group, so an empty input yields
    /// an empty result (columns `out_names`), and the keys are
    /// evaluated (for their own errors) first. Empty for every other
    /// static error, which is raised unconditionally.
    group: Vec<ExprProgram>,
    out_names: Vec<String>,
    error: EngineError,
}

/// Where an output column's declared-type hint comes from (refined by
/// `finalise_types` against the actual buffers, exactly like the
/// row-at-a-time reference).
#[derive(Debug, Clone, Copy)]
enum DTypeSrc {
    Input(usize),
    Fixed(DataType),
}

#[derive(Debug, Clone)]
enum ProjStep {
    /// Splice these input ordinals (wildcards; zero-copy).
    Splice(Vec<usize>),
    /// Evaluate a compiled expression program.
    Prog(ExprProgram),
    /// The projection does not resolve (an unknown output column or
    /// qualifier): raise its error once the windows are computed.
    Fail(EngineError),
}

#[derive(Debug, Clone)]
enum OrderKeySrc {
    /// A projected output column (pure alias / positional reference).
    OutCol(usize),
    /// A program over the block input (plain) or extended (agg) schema.
    Prog(ExprProgram),
}

#[derive(Debug, Clone)]
struct PlainBody {
    windows: Vec<WindowPlan>,
    items: Vec<ProjStep>,
    out_cols: Vec<(String, DTypeSrc)>,
    order: Vec<(OrderKeySrc, SortOrder)>,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
}

#[derive(Debug, Clone)]
struct AggBody {
    group: Vec<ExprProgram>,
    calls: Vec<AggCallPlan>,
    agg_names: Vec<String>,
    /// Input ordinals the post-grouping stages actually read (the
    /// representative rows are gathered for these columns only); the
    /// `items`/`having`/`order` programs are remapped accordingly.
    rep_cols: Vec<usize>,
    having: Option<ExprProgram>,
    items: Vec<AggItemStep>,
    out_names: Vec<String>,
    order: Vec<(OrderKeySrc, SortOrder)>,
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
}

#[derive(Debug, Clone)]
enum AggItemStep {
    /// A plain column of the extended (representative ++ `__aggN`) row.
    Col(usize),
    /// A compound expression over the extended schema.
    Prog(ExprProgram),
}

#[derive(Debug, Clone)]
struct AggCallPlan {
    kind: AggKind,
    distinct: bool,
    args: Vec<ArgStep>,
}

#[derive(Debug, Clone)]
enum ArgStep {
    /// `COUNT(*)`: a constant non-null placeholder.
    Star,
    /// A compiled argument expression.
    Prog(ExprProgram),
}

/// Batch-evaluate every aggregate call's argument programs over one
/// frame, running identical argument expressions only once (sharing a
/// `Batch` is an `Arc` clone). Duplicate arguments are the common case
/// under the DP rewrite, where clamp lowering gives `SUM(CLAMP(z, …))`
/// and `AVG(CLAMP(z, …))` the same per-row clamp pass.
fn eval_call_args(
    calls: &[AggCallPlan],
    frame: &Frame,
    ctx: &EvalContext<'_>,
) -> EngineResult<Vec<Vec<Batch>>> {
    let mut shared: Vec<(&ExprProgram, Batch)> = Vec::new();
    calls
        .iter()
        .map(|call| {
            call.args
                .iter()
                .map(|a| {
                    let p = match a {
                        ArgStep::Star => return Ok(Batch::Const(Value::Int(1))),
                        ArgStep::Prog(p) => p,
                    };
                    if let Some((_, b)) = shared.iter().find(|(q, _)| q.source() == p.source()) {
                        return Ok(b.clone());
                    }
                    let b = p.eval(frame, ctx)?;
                    shared.push((p, b.clone()));
                    Ok(b)
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum WinFunc {
    RowNumber,
    Rank,
    DenseRank,
    Agg(AggKind),
}

#[derive(Debug, Clone)]
struct WindowPlan {
    func: WinFunc,
    distinct: bool,
    partition: Vec<ExprProgram>,
    order: Vec<(ExprProgram, SortOrder)>,
    args: Vec<ArgStep>,
}

// ---------------------------------------------------------------------
// compilation
// ---------------------------------------------------------------------

impl<'a> Executor<'a> {
    /// Compile `query` against the executor's catalog. Fails only when
    /// a base table is missing; every other error is deferred into the
    /// plan (see the module docs).
    pub fn compile(&self, query: &Query) -> EngineResult<CompiledPlan> {
        let (root, _schema) = compile_query(self, query)?;
        let tables = paradise_sql::analysis::base_relations(query);
        let fingerprint = schema_fingerprint(self.catalog, &tables);
        Ok(CompiledPlan { root, tables, fingerprint })
    }

    /// Execute a previously compiled plan. Fails with
    /// [`EngineError::StalePlan`] when the catalog schemas no longer
    /// match the plan's fingerprint (a [`PlanCache`] recompiles instead
    /// of ever hitting this).
    pub fn run_plan(&self, plan: &CompiledPlan) -> EngineResult<Frame> {
        if schema_fingerprint(self.catalog, &plan.tables) != plan.fingerprint {
            return Err(EngineError::StalePlan);
        }
        exec_node(self, &plan.root)
    }
}

/// Compile a query to its plan and static output schema. A `UNION`
/// chain resolves names against its first branch.
fn compile_query(exec: &Executor<'_>, query: &Query) -> EngineResult<(PNode, Schema)> {
    let (first, schema) = compile_block(exec, query)?;
    if query.unions.is_empty() {
        return Ok((first, schema));
    }
    let rest = query
        .unions
        .iter()
        .map(|(all, q)| Ok((*all, compile_block(exec, q)?.0)))
        .collect::<EngineResult<_>>()?;
    Ok((PNode::Union { first: Box::new(first), rest }, schema))
}

fn compile_block(exec: &Executor<'_>, query: &Query) -> EngineResult<(PNode, Schema)> {
    let (input, input_schema) = match &query.from {
        Some(t) => compile_table(exec, t)?,
        None => (PNode::Unit, Schema::default()),
    };
    let filter =
        query.where_clause.as_ref().map(|p| ExprProgram::compile_deferred(p, &input_schema));
    let compiled = if query_aggregates(query) {
        compile_agg(exec, query, &input_schema)
    } else {
        compile_plain(exec, query, &input_schema)
    };
    let (body, schema) = compiled.unwrap_or_else(|error| {
        let fail = FailBody { group: Vec::new(), out_names: Vec::new(), error };
        (Body::Fail(Box::new(fail)), Schema::default())
    });
    Ok((PNode::Block(Box::new(BlockPlan { input, filter, body })), schema))
}

/// The reference's output-column naming rule.
fn item_name(expr: &Expr, alias: &Option<String>) -> String {
    match alias {
        Some(a) => a.clone(),
        None => match expr {
            Expr::Column(c) => c.name.clone(),
            other => format!("{other}").to_lowercase(),
        },
    }
}

fn compile_table(exec: &Executor<'_>, table: &TableRef) -> EngineResult<(PNode, Schema)> {
    match table {
        TableRef::Table { name, alias } => {
            let frame = exec.catalog.get(name)?;
            let source = alias.as_deref().unwrap_or(name).to_string();
            let schema = frame.schema.with_source(&source);
            Ok((PNode::Scan { table: name.clone(), source }, schema))
        }
        TableRef::Subquery { query, alias } => {
            let (node, schema) = compile_query(exec, query)?;
            let schema = match alias {
                Some(a) => schema.with_source(a),
                None => schema,
            };
            Ok((PNode::Derived { input: Box::new(node), alias: alias.clone() }, schema))
        }
        TableRef::Join { left, right, kind, on } => {
            let (l, ls) = compile_table(exec, left)?;
            let (r, rs) = compile_table(exec, right)?;
            // pre-select the join strategy: recognise the single-equality
            // ON shape once; the typed-buffer check still runs at
            // execution time (buffers are dynamically typed)
            let equi = if matches!(kind, JoinKind::Cross) {
                None
            } else {
                on.as_ref().and_then(|p| equi_join_columns(p, &ls, &rs))
            };
            let schema = ls.join(&rs);
            let node = PNode::Join {
                left: Box::new(l),
                right: Box::new(r),
                kind: *kind,
                on: on.clone(),
                equi,
            };
            Ok((node, schema))
        }
    }
}

fn compile_plain(
    exec: &Executor<'_>,
    query: &Query,
    input_schema: &Schema,
) -> EngineResult<(Body, Schema)> {
    // windows: collected in the reference's order (items, then ORDER BY)
    let mut calls: Vec<FunctionCall> = Vec::new();
    for item in &query.items {
        if let SelectItem::Expr { expr, .. } = item {
            window::collect_window_calls(expr, &mut calls);
        }
    }
    for o in &query.order_by {
        window::collect_window_calls(&o.expr, &mut calls);
    }
    let mut work_schema = input_schema.clone();
    let mut windows = Vec::with_capacity(calls.len());
    let mut rewrite_map: Vec<(FunctionCall, String)> = Vec::with_capacity(calls.len());
    for (i, call) in calls.iter().enumerate() {
        windows.push(compile_window(call, input_schema)?);
        let name = format!("__win{i}");
        work_schema.push(Column::new(name.clone(), DataType::Float));
        rewrite_map.push((call.clone(), name));
    }
    let rewrite = |expr: &Expr| window::replace_window_calls(expr.clone(), &rewrite_map);

    let (out_schema, proj) = match exec.projection_plan(query, &work_schema, &rewrite) {
        Ok(plan) => plan,
        Err(error) => {
            // the reference resolves the projection after computing the
            // windows, so their errors surface first
            let body = PlainBody {
                windows,
                items: vec![ProjStep::Fail(error)],
                out_cols: Vec::new(),
                order: Vec::new(),
                distinct: false,
                limit: None,
                offset: None,
            };
            return Ok((Body::Plain(Box::new(body)), Schema::default()));
        }
    };
    let mut items = Vec::with_capacity(proj.len());
    let mut out_cols = Vec::with_capacity(out_schema.len());
    let mut names = out_schema.columns().iter().map(|c| c.name.clone());
    for p in proj {
        match p {
            ProjPlan::Splice(indices) => {
                for &i in &indices {
                    out_cols.push((names.next().expect("aligned"), DTypeSrc::Input(i)));
                }
                items.push(ProjStep::Splice(indices));
            }
            ProjPlan::Expr(e) => {
                let dsrc = match &e {
                    Expr::Column(c) => DTypeSrc::Input(
                        work_schema.resolve(c.qualifier.as_deref(), &c.name)?,
                    ),
                    _ => DTypeSrc::Fixed(DataType::Float),
                };
                out_cols.push((names.next().expect("aligned"), dsrc));
                items.push(ProjStep::Prog(ExprProgram::compile_deferred(&e, &work_schema)));
            }
        }
    }

    let mut order = Vec::with_capacity(query.order_by.len());
    for o in &query.order_by {
        let e = rewrite(&o.expr);
        let src = match order_key_source(&e, &out_schema, &work_schema) {
            KeySource::OutCol(i) => OrderKeySrc::OutCol(i),
            KeySource::Input => OrderKeySrc::Prog(ExprProgram::compile_deferred(&e, &work_schema)),
        };
        order.push((src, o.order));
    }

    let body = Body::Plain(Box::new(PlainBody {
        windows,
        items,
        out_cols,
        order,
        distinct: query.distinct,
        limit: query.limit,
        offset: query.offset,
    }));
    Ok((body, out_schema))
}

fn compile_window(call: &FunctionCall, input_schema: &Schema) -> EngineResult<WindowPlan> {
    let upper = call.name.to_ascii_uppercase();
    let func = match upper.as_str() {
        "ROW_NUMBER" => WinFunc::RowNumber,
        "RANK" => WinFunc::Rank,
        "DENSE_RANK" => WinFunc::DenseRank,
        _ => WinFunc::Agg(AggKind::from_name(&call.name).ok_or_else(|| {
            EngineError::UnknownFunction(format!("{} OVER", call.name))
        })?),
    };
    let over = call.over.as_ref().expect("window call has OVER");
    let partition =
        over.partition_by.iter().map(|p| ExprProgram::compile_deferred(p, input_schema)).collect();
    let order = over
        .order_by
        .iter()
        .map(|o| (ExprProgram::compile_deferred(&o.expr, input_schema), o.order))
        .collect();
    let ranking = matches!(func, WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank);
    let args = if ranking {
        Vec::new()
    } else {
        call.args.iter().map(|a| arg_step(a, input_schema)).collect()
    };
    Ok(WindowPlan { func, distinct: call.distinct, partition, order, args })
}

fn compile_agg(
    exec: &Executor<'_>,
    query: &Query,
    input_schema: &Schema,
) -> EngineResult<(Body, Schema)> {
    if query.has_wildcard() {
        return Err(EngineError::Unsupported("SELECT * with GROUP BY/aggregates".into()));
    }
    if exec.options.strict_group_by {
        let grouped: std::collections::HashSet<String> = query
            .group_by
            .iter()
            .filter_map(|g| match g {
                Expr::Column(c) => Some(c.name.to_ascii_lowercase()),
                _ => None,
            })
            .collect();
        for item in &query.items {
            if let SelectItem::Expr { expr, .. } = item {
                check_strict_grouping(expr, &grouped, &query.group_by)?;
            }
        }
    }

    let group: Vec<ExprProgram> =
        query.group_by.iter().map(|g| ExprProgram::compile_deferred(g, input_schema)).collect();

    let mut agg_calls: Vec<FunctionCall> = Vec::new();
    for item in &query.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregate_calls(expr, &mut agg_calls);
        }
    }
    if let Some(h) = &query.having {
        collect_aggregate_calls(h, &mut agg_calls);
    }
    for o in &query.order_by {
        collect_aggregate_calls(&o.expr, &mut agg_calls);
    }

    let out_names: Vec<String> = query
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, alias } => item_name(expr, alias),
            _ => unreachable!("wildcards excluded"),
        })
        .collect();
    let mut out_schema = Schema::default();
    for name in &out_names {
        out_schema.push(Column::new(name.clone(), DataType::Float));
    }

    let mut calls = Vec::with_capacity(agg_calls.len());
    for call in &agg_calls {
        let checked = AggKind::from_name(&call.name)
            .ok_or_else(|| EngineError::UnknownFunction(call.name.clone()))
            .and_then(|kind| {
                if call.args.len() == kind.arity() {
                    Ok(kind)
                } else {
                    Err(EngineError::WrongArity {
                        function: call.name.clone(),
                        expected: kind.arity().to_string(),
                        got: call.args.len(),
                    })
                }
            });
        let kind = match checked {
            Ok(kind) => kind,
            Err(error) => {
                let fail = FailBody { group, out_names, error };
                return Ok((Body::Fail(Box::new(fail)), out_schema));
            }
        };
        let args = call.args.iter().map(|a| arg_step(a, input_schema)).collect();
        calls.push(AggCallPlan { kind, distinct: call.distinct, args });
    }

    let agg_names: Vec<String> = (0..agg_calls.len()).map(|i| format!("__agg{i}")).collect();
    let mut ext_schema = input_schema.clone();
    for name in &agg_names {
        ext_schema.push(Column::new(name.clone(), DataType::Float));
    }
    let rewrite =
        |expr: &Expr| -> Expr { replace_aggregate_calls(expr.clone(), &agg_calls, &agg_names) };

    let mut having =
        query.having.as_ref().map(|h| ExprProgram::compile_deferred(&rewrite(h), &ext_schema));

    let mut items = Vec::with_capacity(query.items.len());
    for item in &query.items {
        let SelectItem::Expr { expr, .. } = item else { unreachable!("wildcards excluded") };
        let e = rewrite(expr);
        let resolved = match &e {
            Expr::Column(c) => ext_schema.try_resolve(c.qualifier.as_deref(), &c.name),
            _ => None,
        };
        items.push(match resolved {
            Some(idx) => AggItemStep::Col(idx),
            None => AggItemStep::Prog(ExprProgram::compile_deferred(&e, &ext_schema)),
        });
    }

    let mut order = Vec::with_capacity(query.order_by.len());
    for o in &query.order_by {
        let e = rewrite(&o.expr);
        let src = match order_key_source(&e, &out_schema, &ext_schema) {
            KeySource::OutCol(i) => OrderKeySrc::OutCol(i),
            KeySource::Input => OrderKeySrc::Prog(ExprProgram::compile_deferred(&e, &ext_schema)),
        };
        order.push((src, o.order));
    }

    // Representative-column pruning: the post-grouping stages only need
    // the input columns that items/HAVING/ORDER actually read, so the
    // per-group representative rows gather just those (a big win for
    // high-cardinality GROUP BY over wide inputs). Programs are
    // remapped to the compact layout. Skipped when the input schema has
    // duplicate names, where narrowing could change name resolution in
    // the (rare) row-fallback path, and when a program did not resolve
    // (its per-row evaluation may read any column).
    let mut rep_cols: Vec<usize> = (0..input_schema.len()).collect();
    let unique_names = {
        let mut seen = std::collections::HashSet::new();
        input_schema
            .columns()
            .iter()
            .all(|c| seen.insert(c.name.to_ascii_lowercase()))
    };
    let all_resolved = items.iter().all(|s| match s {
        AggItemStep::Col(_) => true,
        AggItemStep::Prog(p) => p.is_resolved(),
    }) && having.as_ref().is_none_or(ExprProgram::is_resolved)
        && order.iter().all(|(src, _)| match src {
            OrderKeySrc::OutCol(_) => true,
            OrderKeySrc::Prog(p) => p.is_resolved(),
        });
    if unique_names && all_resolved {
        let mut used: Vec<bool> = vec![false; input_schema.len()];
        let mut mark = |idx: usize| {
            if idx < used.len() {
                used[idx] = true;
            }
        };
        for step in &items {
            match step {
                AggItemStep::Col(i) => mark(*i),
                AggItemStep::Prog(p) => p.column_ordinals().for_each(&mut mark),
            }
        }
        if let Some(h) = &having {
            h.column_ordinals().for_each(&mut mark);
        }
        for (src, _) in &order {
            if let OrderKeySrc::Prog(p) = src {
                p.column_ordinals().for_each(&mut mark);
            }
        }
        rep_cols = used
            .iter()
            .enumerate()
            .filter_map(|(i, &u)| u.then_some(i))
            .collect();
        // full ext ordinal -> compact ext ordinal
        let mut compact = vec![usize::MAX; input_schema.len() + agg_names.len()];
        for (ci, &full) in rep_cols.iter().enumerate() {
            compact[full] = ci;
        }
        for (ai, slot) in compact.iter_mut().skip(input_schema.len()).enumerate() {
            *slot = rep_cols.len() + ai;
        }
        let remap = |idx: usize| compact[idx];
        for step in &mut items {
            match step {
                AggItemStep::Col(i) => *i = remap(*i),
                AggItemStep::Prog(p) => p.remap_columns(&remap),
            }
        }
        if let Some(h) = &mut having {
            h.remap_columns(&remap);
        }
        for (src, _) in &mut order {
            if let OrderKeySrc::Prog(p) = src {
                p.remap_columns(&remap);
            }
        }
    }

    let body = Body::Agg(Box::new(AggBody {
        group,
        calls,
        agg_names,
        rep_cols,
        having,
        items,
        out_names,
        order,
        distinct: query.distinct,
        limit: query.limit,
        offset: query.offset,
    }));
    Ok((body, out_schema))
}

/// An aggregate or window argument: `*` counts rows.
fn arg_step(arg: &Expr, schema: &Schema) -> ArgStep {
    match arg {
        Expr::Wildcard => ArgStep::Star,
        other => ArgStep::Prog(ExprProgram::compile_deferred(other, schema)),
    }
}

// ---------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------

fn exec_node(exec: &Executor<'_>, node: &PNode) -> EngineResult<Frame> {
    match node {
        PNode::Unit => Frame::new(Schema::default(), vec![vec![]]),
        PNode::Scan { table, source } => {
            let frame = exec.catalog.get(table)?;
            let columns = (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
            Frame::from_arc_columns(frame.schema.with_source(source), columns)
        }
        PNode::Derived { input, alias } => {
            let frame = exec_node(exec, input)?;
            match alias {
                Some(a) => {
                    let schema = frame.schema.with_source(a);
                    let columns =
                        (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
                    Frame::from_arc_columns(schema, columns)
                }
                None => Ok(frame),
            }
        }
        PNode::Join { left, right, kind, on, equi } => {
            let l = exec_node(exec, left)?;
            let r = exec_node(exec, right)?;
            exec.join_frames(l, r, *kind, on.as_ref(), *equi)
        }
        PNode::Block(block) => exec_block(exec, block),
        PNode::Union { first, rest } => {
            let mut result = exec_node(exec, first)?;
            for (all, branch) in rest {
                let next = exec_node(exec, branch)?;
                exec::union_append(&mut result, next, *all)?;
            }
            Ok(result)
        }
    }
}

fn exec_block(exec: &Executor<'_>, block: &BlockPlan) -> EngineResult<Frame> {
    let input = exec_node(exec, &block.input)?;
    let filtered = match &block.filter {
        Some(p) => {
            let subquery_fn = |q: &Query| exec.execute(q);
            let mask = {
                let ctx = EvalContext { schema: &input.schema, subquery: Some(&subquery_fn) };
                p.eval_mask(&input, &ctx)?
            };
            filter_rows_parallel(&input, &mask, ThreadPool::global())
        }
        None => input,
    };
    match &block.body {
        Body::Plain(body) => exec_plain(exec, body, filtered),
        Body::Agg(body) => exec_agg(exec, body, filtered),
        Body::Fail(body) => exec_fail(exec, body, filtered),
    }
}

/// Raise a block's static error where the reference does: after the
/// filter, and — for an aggregation with invalid calls — only once a
/// group exists (with `GROUP BY`, once a row survives the filter).
fn exec_fail(exec: &Executor<'_>, body: &FailBody, input: Frame) -> EngineResult<Frame> {
    if !body.group.is_empty() {
        if input.is_empty() {
            let mut schema = Schema::default();
            for name in &body.out_names {
                schema.push(Column::new(name.clone(), DataType::Float));
            }
            return Ok(Frame::empty(schema));
        }
        let subquery_fn = |q: &Query| exec.execute(q);
        let ctx = EvalContext { schema: &input.schema, subquery: Some(&subquery_fn) };
        for key in &body.group {
            key.eval(&input, &ctx)?;
        }
    }
    Err(body.error.clone())
}

fn exec_plain(exec: &Executor<'_>, body: &PlainBody, input: Frame) -> EngineResult<Frame> {
    let subquery_fn = |q: &Query| exec.execute(q);

    // window columns, attached in plan order
    let mut work = input;
    for (i, w) in body.windows.iter().enumerate() {
        let col = {
            let ctx = EvalContext { schema: &work.schema, subquery: Some(&subquery_fn) };
            compute_window_plan(w, &work, &ctx)?
        };
        work.push_column(Column::new(format!("__win{i}"), DataType::Float), col)?;
    }

    let n = work.len();
    let ctx = EvalContext { schema: &work.schema, subquery: Some(&subquery_fn) };

    let mut out_arcs: Vec<Arc<ColumnData>> = Vec::with_capacity(body.out_cols.len());
    for step in &body.items {
        match step {
            ProjStep::Splice(indices) => {
                for &i in indices {
                    out_arcs.push(work.column_arc(i));
                }
            }
            ProjStep::Prog(p) => out_arcs.push(p.eval(&work, &ctx)?.into_column_arc(n)),
            ProjStep::Fail(error) => return Err(error.clone()),
        }
    }
    let mut out_schema = Schema::default();
    for (name, dsrc) in &body.out_cols {
        let dt = match dsrc {
            DTypeSrc::Input(i) => work.schema.columns()[*i].data_type,
            DTypeSrc::Fixed(dt) => *dt,
        };
        out_schema.push(Column::new(name.clone(), dt));
    }
    let mut frame = Frame::from_arc_columns(out_schema, out_arcs)?;
    finalise_types(&mut frame);

    let mut key_cols: Vec<Arc<ColumnData>> = Vec::with_capacity(body.order.len());
    for (src, _) in &body.order {
        key_cols.push(match src {
            OrderKeySrc::OutCol(i) => frame.column_arc(*i),
            OrderKeySrc::Prog(p) => p.eval(&work, &ctx)?.into_column_arc(n),
        });
    }
    sort_distinct_tail(frame, key_cols, &body.order, body.distinct, body.limit, body.offset)
}

/// Shared DISTINCT → ORDER BY → LIMIT/OFFSET tail of both block bodies,
/// matching the reference's operator order exactly.
fn sort_distinct_tail(
    mut frame: Frame,
    mut key_cols: Vec<Arc<ColumnData>>,
    order: &[(OrderKeySrc, SortOrder)],
    distinct: bool,
    limit: Option<u64>,
    offset: Option<u64>,
) -> EngineResult<Frame> {
    if distinct {
        let kept = distinct_indices(&frame);
        if kept.len() < frame.len() {
            frame = select_rows_parallel(&frame, &kept, ThreadPool::global());
            key_cols = key_cols.iter().map(|c| Arc::new(c.gather(&kept))).collect();
        }
    }
    if !order.is_empty() {
        let orders: Vec<SortOrder> = order.iter().map(|(_, o)| *o).collect();
        let mut perm = exec::sort_permutation(&key_cols, &orders, frame.len());
        if let Some(off) = offset {
            let off = (off as usize).min(perm.len());
            perm.drain(..off);
        }
        if let Some(l) = limit {
            perm.truncate(l as usize);
        }
        frame = select_rows_parallel(&frame, &perm, ThreadPool::global());
    } else {
        if let Some(off) = offset {
            frame.skip_rows(off as usize);
        }
        if let Some(l) = limit {
            frame.truncate(l as usize);
        }
    }
    Ok(frame)
}

fn exec_agg(exec: &Executor<'_>, body: &AggBody, input: Frame) -> EngineResult<Frame> {
    let n = input.len();
    let subquery_fn = |q: &Query| exec.execute(q);

    // 1. group rows (first-appearance order, CSR layout)
    let grouping = if body.group.is_empty() {
        Grouping::single(n)
    } else {
        let ctx = EvalContext { schema: &input.schema, subquery: Some(&subquery_fn) };
        let key_cols: Vec<Arc<ColumnData>> = body
            .group
            .iter()
            .map(|p| Ok(p.eval(&input, &ctx)?.into_column_arc(n)))
            .collect::<EngineResult<_>>()?;
        group_rows(&key_cols, n)
    };

    // 2. batch-evaluate the aggregate arguments once over the input
    // (with zero groups nothing consumes them; programs never evaluate
    // over empty frames, so this stays error-free like the reference)
    let arg_batches: Vec<Vec<Batch>> = {
        let ctx = EvalContext { schema: &input.schema, subquery: Some(&subquery_fn) };
        eval_call_args(&body.calls, &input, &ctx)?
    };

    // 3. accumulate per group (group-parallel over the pool); one value
    // column per aggregate call
    let agg_cols = accumulate_groups(&body.calls, &arg_batches, &grouping, ThreadPool::global())?;

    // 4. extended frame: representative values of the *referenced*
    // input columns per group ++ the aggregate columns
    let ext_all = build_ext_frame(&input, &grouping, body, agg_cols)?;

    // 5.–7. HAVING, projection, ORDER BY/DISTINCT/LIMIT tail
    agg_finalize(exec, body, ext_all)
}

/// Steps 5–7 of grouped aggregation — HAVING over the extended frame,
/// projection, then the shared sort/distinct/limit tail. Shared by the
/// full-rescan path ([`exec_agg`]) and the incremental path (which
/// rebuilds only the extended frame from its accumulator state and
/// re-runs this tail, `O(groups)` per tick).
fn agg_finalize(exec: &Executor<'_>, body: &AggBody, ext_all: Frame) -> EngineResult<Frame> {
    agg_finalize_masked(exec, body, ext_all, None)
}

/// [`agg_finalize`] with an optional pre-computed HAVING mask (one bool
/// per extended-frame row). The incremental paths maintain the mask
/// between ticks and re-evaluate only the groups touched by a fold, so
/// passing it here makes HAVING `O(touched groups)` per tick instead of
/// `O(all groups)`.
fn agg_finalize_masked(
    exec: &Executor<'_>,
    body: &AggBody,
    ext_all: Frame,
    mask: Option<&[bool]>,
) -> EngineResult<Frame> {
    let subquery_fn = |q: &Query| exec.execute(q);

    // 5. HAVING over the extended frame
    let ext = match (&body.having, mask) {
        (Some(_), Some(mask)) => filter_rows_parallel(&ext_all, mask, ThreadPool::global()),
        (Some(h), None) => {
            let mask = {
                let ctx = EvalContext { schema: &ext_all.schema, subquery: Some(&subquery_fn) };
                h.eval_mask(&ext_all, &ctx)?
            };
            filter_rows_parallel(&ext_all, &mask, ThreadPool::global())
        }
        (None, _) => ext_all,
    };

    // 6. projection over the extended frame
    let g = ext.len();
    let ctx = EvalContext { schema: &ext.schema, subquery: Some(&subquery_fn) };
    let mut out_arcs: Vec<Arc<ColumnData>> = Vec::with_capacity(body.items.len());
    for step in &body.items {
        match step {
            AggItemStep::Col(i) => out_arcs.push(ext.column_arc(*i)),
            AggItemStep::Prog(p) => out_arcs.push(p.eval(&ext, &ctx)?.into_column_arc(g)),
        }
    }
    let mut out_schema = Schema::default();
    for name in &body.out_names {
        out_schema.push(Column::new(name.clone(), DataType::Float));
    }
    let mut frame = Frame::from_arc_columns(out_schema, out_arcs)?;
    finalise_types(&mut frame);

    // 7. ORDER BY keys: aliases from the output, the rest over ext
    let mut key_cols: Vec<Arc<ColumnData>> = Vec::with_capacity(body.order.len());
    for (src, _) in &body.order {
        key_cols.push(match src {
            OrderKeySrc::OutCol(i) => frame.column_arc(*i),
            OrderKeySrc::Prog(p) => p.eval(&ext, &ctx)?.into_column_arc(g),
        });
    }
    sort_distinct_tail(frame, key_cols, &body.order, body.distinct, body.limit, body.offset)
}

/// Representative (first) values of the referenced input columns per
/// group ++ one column per aggregate call. A single empty group (global
/// aggregation over zero rows) yields one all-NULL representative row,
/// like the reference.
fn build_ext_frame(
    input: &Frame,
    grouping: &Grouping,
    body: &AggBody,
    agg_cols: Vec<Vec<Value>>,
) -> EngineResult<Frame> {
    let mut frame = if grouping.is_global_empty() {
        let mut schema = Schema::default();
        let mut cols = Vec::with_capacity(body.rep_cols.len());
        for &i in &body.rep_cols {
            schema.push(input.schema.columns()[i].clone());
            cols.push(ColumnData::from_values(vec![Value::Null]));
        }
        if body.rep_cols.is_empty() {
            // zero-column frame must still carry one row
            Frame::from_rows(schema, vec![Vec::new()])
        } else {
            Frame::from_columns(schema, cols)?
        }
    } else {
        let mut schema = Schema::default();
        let mut cols = Vec::with_capacity(body.rep_cols.len());
        for &i in &body.rep_cols {
            schema.push(input.schema.columns()[i].clone());
            cols.push(Arc::new(input.column(i).gather(&grouping.firsts)));
        }
        if body.rep_cols.is_empty() {
            Frame::from_rows(schema, vec![Vec::new(); grouping.len()])
        } else {
            Frame::from_arc_columns(schema, cols)?
        }
    };
    for (values, name) in agg_cols.into_iter().zip(&body.agg_names) {
        let col = ColumnData::from_values(values);
        frame.push_column(Column::new(name.clone(), DataType::Float), col)?;
    }
    Ok(frame)
}

// ---------------------------------------------------------------------
// grouping + typed accumulation kernels
// ---------------------------------------------------------------------

/// Groups of `0..n` in first-appearance order, laid out CSR-style: one
/// shared `rows` buffer partitioned by `offsets` — no per-group `Vec`
/// allocation, which dominates high-cardinality `GROUP BY`/windows.
struct Grouping {
    /// Row indices, grouped contiguously; within a group in ascending
    /// (appearance) order.
    rows: Vec<usize>,
    /// `offsets[g]..offsets[g + 1]` slices `rows` for group `g`.
    offsets: Vec<usize>,
    /// First-appearance row of every group (empty for the synthetic
    /// empty global group).
    firsts: Vec<usize>,
}

impl Grouping {
    /// All rows in one group (`GROUP BY ()` / window without PARTITION
    /// BY); `n == 0` yields the empty global group.
    fn single(n: usize) -> Grouping {
        Grouping {
            rows: (0..n).collect(),
            offsets: vec![0, n],
            firsts: if n > 0 { vec![0] } else { Vec::new() },
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn group(&self, g: usize) -> &[usize] {
        &self.rows[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Is this the synthetic zero-row global group?
    fn is_global_empty(&self) -> bool {
        self.len() == 1 && self.rows.is_empty()
    }

    /// Build from per-row group ids (pass 2 of grouping: counting sort).
    fn from_gids(gids: &[u32], n_groups: usize, firsts: Vec<usize>) -> Grouping {
        let mut offsets = vec![0usize; n_groups + 1];
        for &g in gids {
            offsets[g as usize + 1] += 1;
        }
        for g in 0..n_groups {
            offsets[g + 1] += offsets[g];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0usize; gids.len()];
        for (ri, &g) in gids.iter().enumerate() {
            let c = &mut cursor[g as usize];
            rows[*c] = ri;
            *c += 1;
        }
        Grouping { rows, offsets, firsts }
    }
}

/// Partition `0..n` by the key columns, groups in first-appearance
/// order. Same contract as the reference's grouping, but Fx-hashed
/// with dense single-key fast paths (float-bit / integer keys skip the
/// `GroupKey` enum entirely) — hashing dominates the per-tick cost of
/// `GROUP BY` at scale.
fn group_rows(key_cols: &[Arc<ColumnData>], n: usize) -> Grouping {
    use std::collections::hash_map::Entry;
    if key_cols.is_empty() {
        return Grouping::single(n);
    }
    let mut gids: Vec<u32> = Vec::with_capacity(n);
    let mut firsts: Vec<usize> = Vec::new();
    let mut n_groups = 0u32;

    macro_rules! assign {
        ($slots:ident, $key:expr) => {
            for ri in 0..n {
                let gid = match $slots.entry($key(ri)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let g = n_groups;
                        e.insert(g);
                        firsts.push(ri);
                        n_groups += 1;
                        g
                    }
                };
                gids.push(gid);
            }
        };
    }

    if let [col] = key_cols {
        if let Some(floats) = col.float_slice() {
            // NULL cannot collide with a float key: use a two-level key
            let mut slots: FxHashMap<Option<u64>, u32> = FxHashMap::default();
            // group-key semantics: -0.0 folds onto 0.0, NaNs by bits
            let key = |ri: usize| {
                floats[ri].map(|x| if x == 0.0 { 0.0f64.to_bits() } else { x.to_bits() })
            };
            assign!(slots, key);
            return Grouping::from_gids(&gids, n_groups as usize, firsts);
        }
        if let Some(ints) = col.int_slice() {
            let mut slots: FxHashMap<Option<i64>, u32> = FxHashMap::default();
            let key = |ri: usize| ints[ri];
            assign!(slots, key);
            return Grouping::from_gids(&gids, n_groups as usize, firsts);
        }
        let mut slots: FxHashMap<GroupKey, u32> = FxHashMap::default();
        let key = |ri: usize| col.group_key_at(ri);
        assign!(slots, key);
        return Grouping::from_gids(&gids, n_groups as usize, firsts);
    }

    let mut slots: FxHashMap<Vec<GroupKey>, u32> = FxHashMap::default();
    let key = |ri: usize| -> Vec<GroupKey> {
        key_cols.iter().map(|c| c.group_key_at(ri)).collect()
    };
    assign!(slots, key);
    Grouping::from_gids(&gids, n_groups as usize, firsts)
}

/// Numeric view of one aggregate-argument batch, for the typed
/// accumulation loops (no per-cell `Value` materialisation).
enum NumView<'a> {
    I(&'a [Option<i64>]),
    F(&'a [Option<f64>]),
    ConstInt(i64),
    ConstFloat(f64),
    ConstNull,
}

fn num_view(batch: &Batch) -> Option<NumView<'_>> {
    match batch {
        Batch::Const(Value::Int(v)) => Some(NumView::ConstInt(*v)),
        Batch::Const(Value::Float(v)) => Some(NumView::ConstFloat(*v)),
        Batch::Const(Value::Null) => Some(NumView::ConstNull),
        Batch::Const(_) => None,
        Batch::Col(c) => {
            if let Some(ints) = c.int_slice() {
                Some(NumView::I(ints))
            } else {
                c.float_slice().map(NumView::F)
            }
        }
    }
}

impl NumView<'_> {
    /// `(value, came-from-integer)` at row `i`, `None` for NULL.
    fn get(&self, i: usize) -> Option<(f64, bool)> {
        match self {
            NumView::I(v) => v[i].map(|x| (x as f64, true)),
            NumView::F(v) => v[i].map(|x| (x, false)),
            NumView::ConstInt(x) => Some((*x as f64, true)),
            NumView::ConstFloat(x) => Some((*x, false)),
            NumView::ConstNull => None,
        }
    }
}

/// How one aggregate call's pre-batched arguments feed an
/// [`Accumulator`], with typed fast paths for the numeric kinds. The
/// generic arm reproduces the reference's per-row `Value` loop bit
/// for bit; the fast arms update the same sums in the same order, so
/// results are identical either way. Shared by full-rescan grouped
/// aggregation, running windows and the incremental fold (which keeps
/// its accumulators alive across ticks).
enum ArgFold<'a> {
    /// SUM/AVG/STDDEV/VAR_SAMP over one numeric argument.
    Num(NumView<'a>),
    /// `regr_*(y, x)` over two numeric arguments.
    Pair { y: NumView<'a>, x: NumView<'a> },
    /// COUNT: null test only, no value materialisation.
    Count(&'a Batch),
    /// Everything else (DISTINCT, MIN/MAX, text, mixed buffers).
    Generic { args: &'a [Batch], buf: Vec<Value> },
}

impl<'a> ArgFold<'a> {
    fn new(kind: AggKind, distinct: bool, args: &'a [Batch]) -> ArgFold<'a> {
        if !distinct && args.len() == kind.arity() {
            match kind {
                AggKind::Sum | AggKind::Avg | AggKind::Stddev | AggKind::VarSamp => {
                    if let Some(view) = num_view(&args[0]) {
                        return ArgFold::Num(view);
                    }
                }
                AggKind::Count => return ArgFold::Count(&args[0]),
                AggKind::RegrIntercept
                | AggKind::RegrSlope
                | AggKind::RegrR2
                | AggKind::RegrCount => {
                    if let (Some(y), Some(x)) = (num_view(&args[0]), num_view(&args[1])) {
                        return ArgFold::Pair { y, x };
                    }
                }
                AggKind::Min | AggKind::Max => {}
            }
        }
        ArgFold::Generic { args, buf: Vec::with_capacity(args.len()) }
    }

    /// Fold row `ri`'s argument values into `acc`.
    fn update(&mut self, acc: &mut Accumulator, ri: usize) -> EngineResult<()> {
        match self {
            ArgFold::Num(view) => {
                if let Some((x, from_int)) = view.get(ri) {
                    acc.update_num_fast(x, from_int);
                }
                Ok(())
            }
            ArgFold::Pair { y, x } => {
                if let (Some((yv, _)), Some((xv, _))) = (y.get(ri), x.get(ri)) {
                    acc.update_pair_fast(yv, xv);
                }
                Ok(())
            }
            ArgFold::Count(arg) => {
                if !arg.is_null(ri) {
                    acc.bump_count(1);
                }
                Ok(())
            }
            ArgFold::Generic { args, buf } => {
                buf.clear();
                buf.extend(args.iter().map(|b| b.value(ri)));
                acc.update(buf)
            }
        }
    }
}

/// An [`ArgFold`] paired with an owned accumulator, reset per
/// group/partition: the unit of the rescan paths.
struct RowAcc<'a> {
    acc: Accumulator,
    fold: ArgFold<'a>,
}

impl<'a> RowAcc<'a> {
    fn new(kind: AggKind, distinct: bool, args: &'a [Batch]) -> RowAcc<'a> {
        RowAcc { acc: Accumulator::new(kind, distinct), fold: ArgFold::new(kind, distinct, args) }
    }

    /// Reset for the next group/partition (keeps allocations).
    fn reset(&mut self) {
        self.acc.reset();
    }

    fn update(&mut self, ri: usize) -> EngineResult<()> {
        self.fold.update(&mut self.acc, ri)
    }

    fn finish(&self) -> Value {
        self.acc.finish()
    }
}

/// All aggregate calls over a contiguous range of groups; accumulators
/// are constructed once and reset per group. Returns one value column
/// per call (covering the range), in the reference's group-major
/// evaluation order so errors surface identically.
fn accumulate_range(
    calls: &[AggCallPlan],
    arg_batches: &[Vec<Batch>],
    grouping: &Grouping,
    range: std::ops::Range<usize>,
) -> EngineResult<Vec<Vec<Value>>> {
    let mut accs: Vec<RowAcc<'_>> = calls
        .iter()
        .zip(arg_batches)
        .map(|(c, args)| RowAcc::new(c.kind, c.distinct, args))
        .collect();
    let mut out: Vec<Vec<Value>> =
        calls.iter().map(|_| Vec::with_capacity(range.len())).collect();
    for g in range {
        let rows = grouping.group(g);
        for (acc, col) in accs.iter_mut().zip(out.iter_mut()) {
            acc.reset();
            for &ri in rows {
                acc.update(ri)?;
            }
            col.push(acc.finish());
        }
    }
    Ok(out)
}

/// All aggregate calls over all groups; group-parallel over the pool
/// when the work is large enough. Results stay in group order, errors
/// surface in group order — parallelism is invisible in the output.
fn accumulate_groups(
    calls: &[AggCallPlan],
    arg_batches: &[Vec<Batch>],
    grouping: &Grouping,
    pool: &ThreadPool,
) -> EngineResult<Vec<Vec<Value>>> {
    let ng = grouping.len();
    if pool.workers() == 0 || ng < 2 || grouping.rows.len() < PARALLEL_MIN_ROWS {
        return accumulate_range(calls, arg_batches, grouping, 0..ng);
    }
    let ranges = pool.chunk_ranges(ng, 1);
    let mut parts: Vec<EngineResult<Vec<Vec<Value>>>> = Vec::with_capacity(ranges.len());
    parts.resize_with(ranges.len(), || Ok(Vec::new()));
    pool.scope(|s| {
        for (range, slot) in ranges.iter().zip(parts.iter_mut()) {
            let range = range.clone();
            s.spawn(move || {
                *slot = accumulate_range(calls, arg_batches, grouping, range);
            });
        }
    });
    let mut out: Vec<Vec<Value>> = calls.iter().map(|_| Vec::with_capacity(ng)).collect();
    for part in parts {
        for (col, chunk_col) in out.iter_mut().zip(part?) {
            col.extend(chunk_col);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// windows
// ---------------------------------------------------------------------

/// Typed view of one window sort-key column.
enum KeyView<'a> {
    I(&'a [Option<i64>]),
    F(&'a [Option<f64>]),
    Gen(&'a ColumnData),
}

impl KeyView<'_> {
    fn cmp(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            // Option ordering puts NULL first, like the generic total order
            KeyView::I(v) => v[a].cmp(&v[b]),
            KeyView::F(v) => match (v[a], v[b]) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            },
            KeyView::Gen(c) => c.cmp_at(a, c, b),
        }
    }
}

fn key_views(cols: &[Arc<ColumnData>]) -> Vec<KeyView<'_>> {
    cols.iter()
        .map(|c| {
            if let Some(ints) = c.int_slice() {
                KeyView::I(ints)
            } else if let Some(floats) = c.float_slice() {
                KeyView::F(floats)
            } else {
                KeyView::Gen(c)
            }
        })
        .collect()
}

fn cmp_keys(views: &[KeyView<'_>], orders: &[SortOrder], a: usize, b: usize) -> std::cmp::Ordering {
    for (view, order) in views.iter().zip(orders) {
        let ord = view.cmp(a, b);
        let ord = if *order == SortOrder::Desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn peers_eq(views: &[KeyView<'_>], a: usize, b: usize) -> bool {
    views.iter().all(|v| v.cmp(a, b).is_eq())
}

/// Compute one window call: one output value per input row, in input
/// row order. Partitions are CSR-grouped, per-chunk scratch buffers and
/// accumulators are reused, and chunks run partition-parallel over the
/// pool (each chunk owns a contiguous slice of the CSR-ordered output).
fn compute_window_plan(
    plan: &WindowPlan,
    frame: &Frame,
    ctx: &EvalContext<'_>,
) -> EngineResult<ColumnData> {
    let n = frame.len();
    let part_cols: Vec<Arc<ColumnData>> = plan
        .partition
        .iter()
        .map(|p| Ok(p.eval(frame, ctx)?.into_column_arc(n)))
        .collect::<EngineResult<_>>()?;
    let grouping = if plan.partition.is_empty() {
        Grouping::single(n)
    } else {
        group_rows(&part_cols, n)
    };

    let key_cols: Vec<Arc<ColumnData>> = plan
        .order
        .iter()
        .map(|(p, _)| Ok(p.eval(frame, ctx)?.into_column_arc(n)))
        .collect::<EngineResult<_>>()?;
    let orders: Vec<SortOrder> = plan.order.iter().map(|(_, o)| *o).collect();
    let args: Vec<Batch> = plan
        .args
        .iter()
        .map(|a| match a {
            ArgStep::Star => Ok(Batch::Const(Value::Int(1))),
            ArgStep::Prog(p) => p.eval(frame, ctx),
        })
        .collect::<EngineResult<_>>()?;
    let views = key_views(&key_cols);

    // values in CSR order: chunk `c` covering groups `gs..ge` owns
    // `csr_vals[offsets[gs]..offsets[ge]]`
    let mut csr_vals: Vec<Value> = vec![Value::Null; n];
    let ng = grouping.len();
    let pool = ThreadPool::global();
    let run_range = |range: std::ops::Range<usize>, slice: &mut [Value]| -> EngineResult<()> {
        let base = grouping.offsets[range.start];
        let mut scratch: Vec<usize> = Vec::new();
        let mut acc = match plan.func {
            WinFunc::Agg(kind) => Some(RowAcc::new(kind, plan.distinct, &args)),
            _ => None,
        };
        for g in range {
            let rows = grouping.group(g);
            let lo = grouping.offsets[g] - base;
            window_partition(
                plan.func,
                &views,
                &orders,
                rows,
                &mut slice[lo..lo + rows.len()],
                &mut scratch,
                acc.as_mut(),
            )?;
        }
        Ok(())
    };

    if pool.workers() > 0 && ng >= 2 && n >= PARALLEL_MIN_ROWS {
        let ranges = pool.chunk_ranges(ng, 1);
        let mut slots: Vec<EngineResult<()>> = Vec::with_capacity(ranges.len());
        slots.resize_with(ranges.len(), || Ok(()));
        pool.scope(|s| {
            let mut rest: &mut [Value] = &mut csr_vals;
            for (range, slot) in ranges.iter().zip(slots.iter_mut()) {
                let len = grouping.offsets[range.end] - grouping.offsets[range.start];
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                let range = range.clone();
                let run_range = &run_range;
                s.spawn(move || *slot = run_range(range, head));
            }
        });
        slots.into_iter().collect::<EngineResult<Vec<()>>>()?;
    } else {
        run_range(0..ng, &mut csr_vals)?;
    }

    // scatter back to input row order
    let mut out = vec![Value::Null; n];
    for (k, v) in csr_vals.into_iter().enumerate() {
        out[grouping.rows[k]] = v;
    }
    Ok(ColumnData::from_values(out))
}

/// One partition's window values, written into `out` aligned to the
/// partition's row positions. `scratch` and `acc` are reused across
/// partitions of a chunk.
#[allow(clippy::too_many_arguments)]
fn window_partition(
    func: WinFunc,
    views: &[KeyView<'_>],
    orders: &[SortOrder],
    indices: &[usize],
    out: &mut [Value],
    scratch: &mut Vec<usize>,
    acc: Option<&mut RowAcc<'_>>,
) -> EngineResult<()> {
    scratch.clear();
    scratch.extend(0..indices.len());
    let ordered = scratch;
    if !orders.is_empty() {
        ordered.sort_by(|&a, &b| cmp_keys(views, orders, indices[a], indices[b]));
    }

    match func {
        WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank => {
            let mut rank = 0u64;
            let mut dense = 0u64;
            for (i, &pos) in ordered.iter().enumerate() {
                let new_peer_group = i == 0
                    || orders.is_empty()
                    || !peers_eq(views, indices[ordered[i - 1]], indices[pos]);
                if new_peer_group {
                    rank = (i + 1) as u64;
                    dense += 1;
                }
                let v = match func {
                    WinFunc::RowNumber => (i + 1) as i64,
                    WinFunc::Rank => rank as i64,
                    _ => dense as i64,
                };
                out[pos] = Value::Int(v);
            }
        }
        WinFunc::Agg(_) => {
            let acc = acc.expect("aggregate window has an accumulator");
            acc.reset();
            if orders.is_empty() {
                // whole-partition value
                for &pos in ordered.iter() {
                    acc.update(indices[pos])?;
                }
                let v = acc.finish();
                for &pos in ordered.iter() {
                    out[pos] = v.clone();
                }
            } else {
                // running aggregate with peer groups
                let mut i = 0;
                while i < ordered.len() {
                    let mut j = i + 1;
                    while j < ordered.len()
                        && peers_eq(views, indices[ordered[i]], indices[ordered[j]])
                    {
                        j += 1;
                    }
                    for &pos in &ordered[i..j] {
                        acc.update(indices[pos])?;
                    }
                    let v = acc.finish();
                    for &pos in &ordered[i..j] {
                        out[pos] = v.clone();
                    }
                    i = j;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// parallel gathers
// ---------------------------------------------------------------------

/// `Frame::filter_rows`, gathering the surviving cells column-parallel
/// when the frame has at least `min_rows` rows.
fn filter_rows_parallel_with(
    frame: &Frame,
    mask: &[bool],
    pool: &ThreadPool,
    min_rows: usize,
) -> Frame {
    let cols = frame.schema.len();
    if pool.workers() == 0 || cols < 2 || frame.len() < min_rows {
        return frame.filter_rows(mask);
    }
    let mut outs: Vec<Option<ColumnData>> = Vec::with_capacity(cols);
    outs.resize_with(cols, || None);
    pool.scope(|s| {
        for (ci, slot) in outs.iter_mut().enumerate() {
            let col = frame.column(ci);
            s.spawn(move || *slot = Some(col.filter(mask)));
        }
    });
    let columns: Vec<Arc<ColumnData>> =
        outs.into_iter().map(|c| Arc::new(c.expect("column filtered"))).collect();
    Frame::from_arc_columns(frame.schema.clone(), columns).expect("filter preserves shape")
}

fn filter_rows_parallel(frame: &Frame, mask: &[bool], pool: &ThreadPool) -> Frame {
    filter_rows_parallel_with(frame, mask, pool, PARALLEL_MIN_ROWS)
}

/// `Frame::select_rows`, column-parallel when at least `min_rows` rows.
fn select_rows_parallel_with(
    frame: &Frame,
    indices: &[usize],
    pool: &ThreadPool,
    min_rows: usize,
) -> Frame {
    let cols = frame.schema.len();
    if pool.workers() == 0 || cols < 2 || indices.len() < min_rows {
        return frame.select_rows(indices);
    }
    let mut outs: Vec<Option<ColumnData>> = Vec::with_capacity(cols);
    outs.resize_with(cols, || None);
    pool.scope(|s| {
        for (ci, slot) in outs.iter_mut().enumerate() {
            let col = frame.column(ci);
            s.spawn(move || *slot = Some(col.gather(indices)));
        }
    });
    let columns: Vec<Arc<ColumnData>> =
        outs.into_iter().map(|c| Arc::new(c.expect("column gathered"))).collect();
    Frame::from_arc_columns(frame.schema.clone(), columns).expect("gather preserves shape")
}

fn select_rows_parallel(frame: &Frame, indices: &[usize], pool: &ThreadPool) -> Frame {
    select_rows_parallel_with(frame, indices, pool, PARALLEL_MIN_ROWS)
}

// ---------------------------------------------------------------------
// plan cache
// ---------------------------------------------------------------------

/// Upper bound on cached plans before an epoch-style reset (a stream of
/// distinct ad-hoc queries must not grow memory forever).
const MAX_CACHED_PLANS: usize = 1024;

/// Hit/miss/invalidation counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled from scratch.
    pub misses: u64,
    /// Misses caused by a schema-fingerprint change (also counted in
    /// `misses`).
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    query: Query,
    tables: Vec<String>,
    fingerprint: u64,
    /// Caller-chosen key extension (e.g. a privacy-policy version); an
    /// entry only hits for the salt it was compiled under.
    salt: u64,
    /// `None`: the query does not compile (a base table is missing);
    /// don't retry until the schema fingerprint changes.
    plan: Option<Arc<CompiledPlan>>,
    /// The incremental (delta-aware) plan, compiled lazily on the first
    /// request: outer `None` = not attempted yet, `Some(None)` = shape
    /// is not incrementally maintainable (don't retry until the schema
    /// fingerprint changes).
    inc: Option<Option<Arc<IncrementalPlan>>>,
}

/// Cache of compiled plans keyed by `(query AST, schema fingerprint,
/// salt)`.
///
/// Keys hash via [`ast_key`] (no allocation); a hit verifies the stored
/// AST by structural equality, so hash collisions can never serve a
/// wrong plan. A fingerprint mismatch counts as an invalidation and
/// recompiles in place.
///
/// The `salt` is an opaque caller-supplied key extension. The runtime
/// layer passes the module's privacy-policy *version* here, so a policy
/// swap (which may rewrite fragments) can never serve a plan compiled
/// under a previous policy; [`PlanCache::purge_salt`] evicts the stale
/// generation eagerly.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<u64, Vec<CacheEntry>>,
    len: usize,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Hit/miss/invalidation counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Number of cached (compiled or failed) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up (or compile) the plan for `query` against `exec`'s
    /// catalog. Returns `None` when the query does not compile (see
    /// [`Executor::compile`]); that verdict is cached too.
    pub fn get_or_compile(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
    ) -> Option<Arc<CompiledPlan>> {
        self.get_or_compile_salted(exec, query, 0)
    }

    /// [`PlanCache::get_or_compile`] with an explicit key extension:
    /// entries only hit for the `salt` they were compiled under (the
    /// continuous-query runtime passes the module's policy version).
    pub fn get_or_compile_salted(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
        salt: u64,
    ) -> Option<Arc<CompiledPlan>> {
        self.lookup(exec, query, salt, false).0
    }

    /// One cache operation that returns **both** plan flavours of a
    /// query: the compiled full-rescan plan and — when the shape is
    /// incrementally maintainable — the delta-aware
    /// [`IncrementalPlan`]. The incremental plan is compiled lazily on
    /// the first request and memoized in the same entry, so a steady
    /// tick costs exactly one lookup regardless of which flavour runs
    /// (the hit/miss counters move once per call, like
    /// [`PlanCache::get_or_compile_salted`]).
    pub fn get_or_compile_with_incremental(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
        salt: u64,
    ) -> (Option<Arc<CompiledPlan>>, Option<Arc<IncrementalPlan>>) {
        self.lookup(exec, query, salt, true)
    }

    fn lookup(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
        salt: u64,
        want_inc: bool,
    ) -> (Option<Arc<CompiledPlan>>, Option<Arc<IncrementalPlan>>) {
        let ensure_inc = |entry: &mut CacheEntry| -> Option<Arc<IncrementalPlan>> {
            if entry.inc.is_none() {
                entry.inc =
                    Some(exec.compile_incremental(&entry.query).ok().flatten().map(Arc::new));
            }
            entry.inc.clone().expect("just ensured")
        };
        let key = ast_key(query);
        if let Some(list) = self.entries.get_mut(&key) {
            if let Some(entry) = list.iter_mut().find(|e| e.query == *query && e.salt == salt) {
                let fp = schema_fingerprint(exec.catalog, &entry.tables);
                if fp == entry.fingerprint {
                    self.stats.hits += 1;
                    let inc = if want_inc { ensure_inc(entry) } else { None };
                    return (entry.plan.clone(), inc);
                }
                // schemas changed under the plan: recompile in place
                self.stats.misses += 1;
                self.stats.invalidations += 1;
                let plan = exec.compile(query).ok().map(Arc::new);
                entry.fingerprint = plan.as_ref().map(|p| p.fingerprint()).unwrap_or(fp);
                entry.plan = plan.clone();
                entry.inc = None;
                let inc = if want_inc { ensure_inc(entry) } else { None };
                return (plan, inc);
            }
        }
        self.stats.misses += 1;
        if self.len >= MAX_CACHED_PLANS {
            self.entries.clear();
            self.len = 0;
        }
        let tables = paradise_sql::analysis::base_relations(query);
        let plan = exec.compile(query).ok().map(Arc::new);
        let fingerprint = plan
            .as_ref()
            .map(|p| p.fingerprint())
            .unwrap_or_else(|| schema_fingerprint(exec.catalog, &tables));
        let mut entry = CacheEntry {
            query: query.clone(),
            tables,
            fingerprint,
            salt,
            plan: plan.clone(),
            inc: None,
        };
        let inc = if want_inc { ensure_inc(&mut entry) } else { None };
        self.entries.entry(key).or_default().push(entry);
        self.len += 1;
        (plan, inc)
    }

    /// Insert a plan compiled elsewhere (cross-handle plan sharing in
    /// the continuous-query runtime: two handles registering the same
    /// rewritten fragment compile once and share the `Arc`). No
    /// hit/miss accounting; returns `false` when an entry for this
    /// (query, salt) already exists or the plan's schema fingerprint
    /// does not match the catalog it was compiled against.
    pub fn seed(
        &mut self,
        exec: &Executor<'_>,
        query: &Query,
        salt: u64,
        plan: Arc<CompiledPlan>,
    ) -> bool {
        if schema_fingerprint(exec.catalog, plan.tables()) != plan.fingerprint() {
            return false;
        }
        let key = ast_key(query);
        if let Some(list) = self.entries.get(&key) {
            if list.iter().any(|e| e.query == *query && e.salt == salt) {
                return false;
            }
        }
        if self.len >= MAX_CACHED_PLANS {
            self.entries.clear();
            self.len = 0;
        }
        self.entries.entry(key).or_default().push(CacheEntry {
            query: query.clone(),
            tables: plan.tables().to_vec(),
            fingerprint: plan.fingerprint(),
            salt,
            plan: Some(plan),
            inc: None,
        });
        self.len += 1;
        true
    }

    /// Iterate the successfully compiled entries — the harvest side of
    /// cross-handle plan sharing.
    pub fn compiled_entries(&self) -> impl Iterator<Item = (&Query, &Arc<CompiledPlan>)> {
        self.entries
            .values()
            .flatten()
            .filter_map(|e| e.plan.as_ref().map(|p| (&e.query, p)))
    }

    /// Evict every entry whose salt differs from `current`, counting
    /// each eviction as an invalidation. The per-node hook behind live
    /// policy updates: when a module's policy version is bumped, the
    /// plans compiled under older versions are dead weight and must
    /// never be served again. Returns the number of evicted entries.
    pub fn purge_salt(&mut self, current: u64) -> usize {
        let mut evicted = 0usize;
        self.entries.retain(|_, list| {
            list.retain(|e| {
                let keep = e.salt == current;
                if !keep {
                    evicted += 1;
                }
                keep
            });
            !list.is_empty()
        });
        self.len -= evicted;
        self.stats.invalidations += evicted as u64;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecMode, ExecOptions};
    use paradise_sql::parse_query;

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("t", DataType::Integer),
        ]);
        let rows = (0..200)
            .map(|i| {
                vec![
                    Value::Float((i % 9) as f64),
                    Value::Float((i % 4) as f64),
                    Value::Float((i % 3) as f64 * 0.9),
                    Value::Int(i),
                ]
            })
            .collect();
        let mut c = Catalog::new();
        c.register("stream", Frame::new(schema, rows).unwrap()).unwrap();
        c
    }

    const QUERIES: &[&str] = &[
        "SELECT * FROM stream",
        "SELECT x, t FROM stream WHERE z < 2",
        "SELECT x, AVG(z) AS za FROM stream GROUP BY x HAVING SUM(z) > 1 ORDER BY za DESC",
        "SELECT SUM(z) OVER (PARTITION BY x ORDER BY t) FROM stream",
        "SELECT DISTINCT x FROM stream ORDER BY x LIMIT 3",
        "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t WHERE a.z < 1",
        "SELECT za FROM (SELECT x, AVG(z) AS za FROM stream GROUP BY x)",
        "SELECT COUNT(*) FROM stream",
        "SELECT regr_intercept(y, x) AS ri FROM stream",
        "SELECT x FROM stream ORDER BY t DESC LIMIT 5 OFFSET 2",
        "SELECT x FROM stream UNION SELECT y FROM stream",
    ];

    #[test]
    fn compiled_matches_interpreted() {
        let c = catalog();
        let compiled_exec = Executor::new(&c);
        let interp_exec = Executor::with_options(
            &c,
            ExecOptions { mode: ExecMode::RowAtATime, ..Default::default() },
        );
        for sql in QUERIES {
            let q = parse_query(sql).unwrap();
            let plan = compiled_exec.compile(&q).unwrap();
            let a = compiled_exec.run_plan(&plan).unwrap();
            let b = interp_exec.execute(&q).unwrap();
            assert_eq!(a.schema, b.schema, "schema diverges for {sql}");
            assert_eq!(a.to_rows(), b.to_rows(), "rows diverge for {sql}");
        }
    }

    #[test]
    fn stale_plan_is_rejected() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream").unwrap();
        let plan = Executor::new(&c).compile(&q).unwrap();

        let mut c2 = Catalog::new();
        let schema = Schema::from_pairs(&[("renamed", DataType::Float)]);
        c2.register("stream", Frame::new(schema, vec![vec![Value::Float(1.0)]]).unwrap())
            .unwrap();
        let exec2 = Executor::new(&c2);
        assert!(matches!(exec2.run_plan(&plan), Err(EngineError::StalePlan)));
    }

    #[test]
    fn plan_cache_hits_and_invalidates() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream WHERE z < 2").unwrap();
        let mut cache = PlanCache::new();
        {
            let exec = Executor::new(&c);
            assert!(cache.get_or_compile(&exec, &q).is_some());
            assert!(cache.get_or_compile(&exec, &q).is_some());
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.len(), 1);

        // same query over a different schema: invalidation + recompile
        let mut c2 = Catalog::new();
        let schema = Schema::from_pairs(&[("z", DataType::Float), ("x", DataType::Integer)]);
        c2.register("stream", Frame::new(schema, vec![vec![Value::Float(0.5), Value::Int(3)]]).unwrap())
            .unwrap();
        let exec2 = Executor::new(&c2);
        let plan = cache.get_or_compile(&exec2, &q).expect("recompiled");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(exec2.run_plan(&plan).unwrap().to_rows(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn salted_entries_are_disjoint_and_purgeable() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream WHERE z < 2").unwrap();
        let mut cache = PlanCache::new();
        let exec = Executor::new(&c);
        // the same query under two salts compiles twice, hits per salt
        assert!(cache.get_or_compile_salted(&exec, &q, 1).is_some());
        assert!(cache.get_or_compile_salted(&exec, &q, 2).is_some());
        assert!(cache.get_or_compile_salted(&exec, &q, 1).is_some());
        assert!(cache.get_or_compile_salted(&exec, &q, 2).is_some());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.len(), 2);

        // bumping to salt 3 purges both stale generations
        assert_eq!(cache.purge_salt(3), 2);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().invalidations, 2);
        assert!(cache.get_or_compile_salted(&exec, &q, 3).is_some());
        assert_eq!(cache.stats().misses, 3);
        // purging with the live salt evicts nothing
        assert_eq!(cache.purge_salt(3), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn uncompilable_queries_cache_the_interpret_verdict() {
        let c = catalog();
        let q = parse_query("SELECT x FROM stream UNION SELECT y FROM stream").unwrap();
        let mut cache = PlanCache::new();
        let exec = Executor::new(&c);
        // UNION compiles natively to a union node
        let plan = cache.get_or_compile(&exec, &q).expect("UNION compiles");
        assert!(matches!(plan.root, PNode::Union { .. }));
        // a query over a missing table does not compile at all, and
        // that verdict is cached until the schemas change
        let missing = parse_query("SELECT q FROM nowhere").unwrap();
        assert!(cache.get_or_compile(&exec, &missing).is_none());
        assert!(cache.get_or_compile(&exec, &missing).is_none());
        assert_eq!(cache.stats().hits, 1, "the failed compile is cached");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn ast_key_distinguishes_queries() {
        let a = parse_query("SELECT x FROM stream").unwrap();
        let b = parse_query("SELECT y FROM stream").unwrap();
        assert_ne!(ast_key(&a), ast_key(&b));
        assert_eq!(ast_key(&a), ast_key(&parse_query("SELECT  x  FROM  stream").unwrap()));
    }

    #[test]
    fn fingerprint_tracks_schema_changes() {
        let c = catalog();
        let tables = vec!["stream".to_string()];
        let fp1 = schema_fingerprint(&c, &tables);
        let mut c2 = Catalog::new();
        c2.register(
            "stream",
            Frame::new(Schema::from_pairs(&[("x", DataType::Integer)]), vec![]).unwrap(),
        )
        .unwrap();
        assert_ne!(fp1, schema_fingerprint(&c2, &tables));
        assert_ne!(fp1, schema_fingerprint(&Catalog::new(), &tables));
    }

    #[test]
    fn parallel_operators_match_serial() {
        // explicit pool: the global one is serial on single-core machines
        let pool = ThreadPool::new(3);
        let c = catalog();
        let frame = c.get("stream").unwrap();
        let mask: Vec<bool> = (0..frame.len()).map(|i| i % 3 != 0).collect();
        let par = filter_rows_parallel_with(frame, &mask, &pool, 0);
        assert_eq!(par.to_rows(), frame.filter_rows(&mask).to_rows());

        let indices: Vec<usize> = (0..frame.len()).rev().collect();
        let sel = select_rows_parallel_with(frame, &indices, &pool, 0);
        assert_eq!(sel.to_rows(), frame.select_rows(&indices).to_rows());

        // grouped accumulation: two calls over many groups, parallel
        // chunking vs the serial range
        let zs = frame.column_arc(2);
        let calls = vec![
            AggCallPlan { kind: AggKind::Avg, distinct: false, args: vec![ArgStep::Star] },
            AggCallPlan { kind: AggKind::Sum, distinct: false, args: vec![ArgStep::Star] },
        ];
        let args = vec![vec![Batch::Col(Arc::clone(&zs))], vec![Batch::Col(zs)]];
        let grouping = group_rows(&[frame.column_arc(0)], frame.len());
        let serial = accumulate_range(&calls, &args, &grouping, 0..grouping.len()).unwrap();
        // `accumulate_groups` takes the parallel path only past the row
        // threshold; replicate the grouping until it crosses it so the
        // production splitter runs with real workers
        let mut big_rows = Vec::new();
        let mut big_offsets = vec![0usize];
        let mut big_firsts = Vec::new();
        while big_rows.len() < PARALLEL_MIN_ROWS {
            for g in 0..grouping.len() {
                big_firsts.push(grouping.group(g)[0]);
                big_rows.extend_from_slice(grouping.group(g));
                big_offsets.push(big_rows.len());
            }
        }
        let big = Grouping { rows: big_rows, offsets: big_offsets, firsts: big_firsts };
        let serial_big = accumulate_range(&calls, &args, &big, 0..big.len()).unwrap();
        let parallel_big = accumulate_groups(&calls, &args, &big, &pool).unwrap();
        assert_eq!(serial_big, parallel_big);
        // the replicated grouping repeats the original per-group values
        let reps = big.len() / grouping.len();
        for (big_col, col) in serial_big.iter().zip(&serial) {
            let expect: Vec<Value> =
                (0..reps).flat_map(|_| col.iter().cloned()).collect();
            assert_eq!(big_col, &expect);
        }
    }

    #[test]
    fn csr_grouping_matches_reference_partitioning() {
        let c = catalog();
        let frame = c.get("stream").unwrap();
        for col in 0..frame.schema.len() {
            let key = frame.column_arc(col);
            let grouping = group_rows(&[Arc::clone(&key)], frame.len());
            // reference: first-appearance order over group keys
            let mut order: Vec<GroupKey> = Vec::new();
            let mut expect: Vec<Vec<usize>> = Vec::new();
            for ri in 0..frame.len() {
                let k = key.group_key_at(ri);
                match order.iter().position(|x| *x == k) {
                    Some(g) => expect[g].push(ri),
                    None => {
                        order.push(k);
                        expect.push(vec![ri]);
                    }
                }
            }
            assert_eq!(grouping.len(), expect.len(), "column {col}");
            for (g, rows) in expect.iter().enumerate() {
                assert_eq!(grouping.group(g), rows.as_slice(), "column {col}, group {g}");
                assert_eq!(grouping.firsts[g], rows[0]);
            }
        }
    }

}
