//! The query executor.
//!
//! Pipeline per `SELECT` block (SQL logical order):
//! `FROM` → `WHERE` → `GROUP BY`+aggregates → `HAVING` → window functions
//! → projection → `DISTINCT` → `ORDER BY` → `LIMIT`/`OFFSET` → `UNION`.
//!
//! ## Compiled vs. row-at-a-time execution
//!
//! The engine ([`ExecMode::Compiled`], the default) compiles every
//! query into a physical plan first (see [`crate::plan`]): ordinals
//! pre-resolved, expressions lowered to flat instruction programs,
//! strategies pre-selected — then executes the plan column-at-a-time
//! over the typed buffers of [`Frame`]. Continuous queries compile once
//! and re-run the plan every tick.
//!
//! [`ExecMode::RowAtATime`] keeps the original row-major operators (see
//! [`rows`]) as the executable reference semantics: it walks the AST
//! and evaluates every expression per row with
//! [`crate::eval::eval_expr`]. The equivalence suites run every corpus
//! query through both modes and assert identical frames, or the same
//! error.
//!
//! ## Lenient vs. strict GROUP BY
//!
//! The paper's rewritten query projects `t` while grouping by `x, y`
//! (§4.2). In **lenient** mode (the default, matching the paper) such
//! columns take their value from the first row of each group. **Strict**
//! mode rejects them like `ONLY_FULL_GROUP_BY`.

pub mod aggregate;
pub mod rows;
pub mod window;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use paradise_sql::analysis::is_aggregate_function;
use paradise_sql::ast::{
    expr_has_aggregate, Expr, FunctionCall, Query, SelectItem, SortOrder, TableRef,
};
use paradise_sql::visit::transform_expr;

use crate::catalog::Catalog;
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, eval_predicate, EvalContext};
use crate::frame::{Frame, Row};
use crate::schema::{Column, Schema};
use crate::value::{DataType, GroupKey, Value};

/// Which operator implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile the query to a physical plan (pre-resolved ordinals,
    /// expression programs, pre-selected strategies) and run that — the
    /// production path.
    #[default]
    Compiled,
    /// The original row-major operators, kept as the executable
    /// reference semantics for equivalence testing.
    RowAtATime,
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Reject non-grouped, non-aggregated columns (ONLY_FULL_GROUP_BY).
    pub strict_group_by: bool,
    /// Safety valve for joins: maximum produced rows before aborting.
    /// `0` means the default of 10 million.
    pub max_rows: usize,
    /// Operator implementation to use.
    pub mode: ExecMode,
}

impl ExecOptions {
    fn effective_max_rows(&self) -> usize {
        if self.max_rows == 0 {
            10_000_000
        } else {
            self.max_rows
        }
    }
}

/// Query executor bound to a catalog.
pub struct Executor<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) options: ExecOptions,
}

impl<'a> Executor<'a> {
    /// Executor with default (lenient, paper-compatible, compiled)
    /// options.
    pub fn new(catalog: &'a Catalog) -> Self {
        Executor { catalog, options: ExecOptions::default() }
    }

    /// Executor with explicit options.
    pub fn with_options(catalog: &'a Catalog, options: ExecOptions) -> Self {
        Executor { catalog, options }
    }

    /// Execute a query to a materialised [`Frame`].
    ///
    /// In [`ExecMode::Compiled`] (the default) this is
    /// [`Executor::compile`] followed by [`Executor::run_plan`]; errors
    /// the reference raises only while evaluating rows surface at run
    /// time, and only once a row is actually evaluated.
    pub fn execute(&self, query: &Query) -> EngineResult<Frame> {
        match self.options.mode {
            ExecMode::Compiled => self.run_plan(&self.compile(query)?),
            ExecMode::RowAtATime => rows::execute_rows(self, query),
        }
    }

    /// `FROM` evaluation of the row-at-a-time path.
    pub(crate) fn eval_table(&self, table: &TableRef) -> EngineResult<Frame> {
        match table {
            TableRef::Table { name, alias } => {
                let frame = self.catalog.get(name)?;
                let source = alias.as_deref().unwrap_or(name);
                // requalified schema over *shared* column buffers: a scan
                // copies pointers, not cells
                let columns = (0..frame.schema.len()).map(|c| frame.column_arc(c)).collect();
                Frame::from_arc_columns(frame.schema.with_source(source), columns)
            }
            TableRef::Subquery { query, alias } => {
                let frame = self.execute(query)?;
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
            TableRef::Join { left, right, kind, on } => {
                let l = self.eval_table(left)?;
                let r = self.eval_table(right)?;
                // strategy selection: recognise the single-equality ON
                // shape here (the compiled plan pre-selects this once)
                let equi = if matches!(kind, paradise_sql::ast::JoinKind::Cross) {
                    None
                } else {
                    on.as_ref().and_then(|p| equi_join_columns(p, &l.schema, &r.schema))
                };
                self.join_frames(l, r, *kind, on.as_ref(), equi)
            }
        }
    }

    /// Join two materialised frames. `equi` carries the pre-selected
    /// hash-join candidate (left, right) key columns; the hash path is
    /// taken only when the actual buffers are [`hash_joinable`],
    /// otherwise the nested loop runs.
    pub(crate) fn join_frames(
        &self,
        left: Frame,
        right: Frame,
        kind: paradise_sql::ast::JoinKind,
        on: Option<&Expr>,
        equi: Option<(usize, usize)>,
    ) -> EngineResult<Frame> {
        use paradise_sql::ast::JoinKind;
        if let Some((li, ri)) = equi {
            if hash_joinable(left.column(li), right.column(ri)) {
                return self.hash_equi_join(left, right, kind, li, ri);
            }
        }
        let schema = left.schema.join(&right.schema);
        let subquery_fn = |q: &Query| self.execute(q);
        let ctx = EvalContext { schema: &schema, subquery: Some(&subquery_fn) };
        let max_rows = self.options.effective_max_rows();
        let left_rows = left.to_rows();
        let right_rows = right.to_rows();
        let mut out: Vec<Row> = Vec::new();
        let null_right: Row = vec![Value::Null; right.schema.len()];
        let null_left: Row = vec![Value::Null; left.schema.len()];
        let mut right_matched = vec![false; right_rows.len()];

        for lrow in &left_rows {
            let mut matched = false;
            for (ri, rrow) in right_rows.iter().enumerate() {
                let mut combined = Vec::with_capacity(schema.len());
                combined.extend(lrow.iter().cloned());
                combined.extend(rrow.iter().cloned());
                let keep = match (kind, on) {
                    (JoinKind::Cross, _) => true,
                    (_, Some(pred)) => eval_predicate(pred, &combined, &ctx)?,
                    (_, None) => true,
                };
                if keep {
                    matched = true;
                    right_matched[ri] = true;
                    out.push(combined);
                    if out.len() > max_rows {
                        return Err(EngineError::Unsupported(format!(
                            "join exceeded {max_rows} rows"
                        )));
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                let mut combined = Vec::with_capacity(schema.len());
                combined.extend(lrow.iter().cloned());
                combined.extend(null_right.iter().cloned());
                out.push(combined);
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, rrow) in right_rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut combined = Vec::with_capacity(schema.len());
                    combined.extend(null_left.iter().cloned());
                    combined.extend(rrow.iter().cloned());
                    out.push(combined);
                }
            }
        }
        Ok(Frame::from_rows(schema, out))
    }

    /// Hash join on one equality: build an index over the right key
    /// column, probe with the left one. Emits rows in the same order as
    /// the nested loop (left order, then right order per left row).
    fn hash_equi_join(
        &self,
        left: Frame,
        right: Frame,
        kind: paradise_sql::ast::JoinKind,
        left_key: usize,
        right_key: usize,
    ) -> EngineResult<Frame> {
        use paradise_sql::ast::JoinKind;
        let schema = left.schema.join(&right.schema);
        let max_rows = self.options.effective_max_rows();
        let rk = right.column(right_key);
        let mut index: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for j in 0..right.len() {
            // SQL equality: NULL keys never match
            if !rk.is_null(j) {
                index.entry(rk.group_key_at(j)).or_default().push(j);
            }
        }

        let lk = left.column(left_key);
        let mut out: Vec<Row> = Vec::new();
        let null_right: Row = vec![Value::Null; right.schema.len()];
        let null_left: Row = vec![Value::Null; left.schema.len()];
        let mut right_matched = vec![false; right.len()];

        for i in 0..left.len() {
            let matches = if lk.is_null(i) {
                None
            } else {
                index.get(&lk.group_key_at(i))
            };
            match matches {
                Some(js) => {
                    let lrow = left.row(i);
                    for &j in js {
                        right_matched[j] = true;
                        let mut combined = Vec::with_capacity(schema.len());
                        combined.extend(lrow.iter().cloned());
                        combined.extend(right.row(j));
                        out.push(combined);
                        if out.len() > max_rows {
                            return Err(EngineError::Unsupported(format!(
                                "join exceeded {max_rows} rows"
                            )));
                        }
                    }
                }
                None if matches!(kind, JoinKind::Left | JoinKind::Full) => {
                    let mut combined = left.row(i);
                    combined.extend(null_right.iter().cloned());
                    out.push(combined);
                }
                None => {}
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (j, matched) in right_matched.iter().enumerate() {
                if !matched {
                    let mut combined = null_left.clone();
                    combined.extend(right.row(j));
                    out.push(combined);
                }
            }
        }
        Ok(Frame::from_rows(schema, out))
    }

    /// Compute ORDER BY key values for one row: aliases resolve against
    /// the projected output, everything else against the input row.
    pub(crate) fn order_keys(
        &self,
        order_exprs: &[Expr],
        input_row: &Row,
        out_row: &Row,
        out_schema: &Schema,
        ctx: &EvalContext<'_>,
    ) -> EngineResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(order_exprs.len());
        for e in order_exprs {
            match order_key_source(e, out_schema, ctx.schema) {
                KeySource::OutCol(idx) => keys.push(out_row[idx].clone()),
                KeySource::Input => keys.push(eval_expr(e, input_row, ctx)?),
            }
        }
        Ok(keys)
    }

    /// Build the output schema and per-item evaluation plan.
    pub(crate) fn projection_plan(
        &self,
        query: &Query,
        input: &Schema,
        rewrite: &dyn Fn(&Expr) -> Expr,
    ) -> EngineResult<(Schema, Vec<ProjPlan>)> {
        let mut out = Schema::default();
        let mut plans = Vec::with_capacity(query.items.len());
        for item in &query.items {
            match item {
                SelectItem::Wildcard => {
                    let indices: Vec<usize> = (0..input.len()).collect();
                    for c in input.columns() {
                        out.push(Column::new(c.name.clone(), c.data_type));
                    }
                    plans.push(ProjPlan::Splice(indices));
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut indices = Vec::new();
                    for (i, c) in input.columns().iter().enumerate() {
                        if c.source.as_deref().is_some_and(|s| s.eq_ignore_ascii_case(q)) {
                            indices.push(i);
                            out.push(Column::new(c.name.clone(), c.data_type));
                        }
                    }
                    if indices.is_empty() {
                        return Err(EngineError::UnknownTable(q.clone()));
                    }
                    plans.push(ProjPlan::Splice(indices));
                }
                SelectItem::Expr { expr, alias } => {
                    let rewritten = rewrite(expr);
                    let name = match alias {
                        Some(a) => a.clone(),
                        None => match expr {
                            Expr::Column(c) => c.name.clone(),
                            other => format!("{other}").to_lowercase(),
                        },
                    };
                    let dtype = match &rewritten {
                        Expr::Column(c) => {
                            let idx = input.resolve(c.qualifier.as_deref(), &c.name)?;
                            input.columns()[idx].data_type
                        }
                        _ => DataType::Float, // refined by finalise_types
                    };
                    out.push(Column::new(name, dtype));
                    plans.push(ProjPlan::Expr(rewritten));
                }
            }
        }
        Ok((out, plans))
    }
}

/// Does the query need the aggregation path?
pub(crate) fn query_aggregates(query: &Query) -> bool {
    !query.group_by.is_empty()
        || query.having.is_some()
        || query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr_has_aggregate(expr, &is_aggregate_function)))
}

/// Per-item projection plan.
pub(crate) enum ProjPlan {
    /// Copy these input column indices (wildcards).
    Splice(Vec<usize>),
    /// Evaluate this (window-rewritten) expression.
    Expr(Expr),
}

/// Recognise `left_col = right_col` ON conditions: returns the column
/// indices in the (left, right) schemas, trying both orientations.
pub(crate) fn equi_join_columns(
    on: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(usize, usize)> {
    let Expr::Binary { left: l, op: paradise_sql::ast::BinaryOp::Eq, right: r } = on else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    let resolve = |schema: &Schema, c: &paradise_sql::ast::ColumnRef| {
        schema.try_resolve(c.qualifier.as_deref(), &c.name)
    };
    if let (Some(li), Some(ri)) = (resolve(left, a), resolve(right, b)) {
        // the name must not also resolve on the other side, otherwise the
        // combined-schema resolution the nested loop uses could differ
        if resolve(right, a).is_none() && resolve(left, b).is_none() {
            return Some((li, ri));
        }
    }
    if let (Some(li), Some(ri)) = (resolve(left, b), resolve(right, a)) {
        if resolve(right, b).is_none() && resolve(left, a).is_none() {
            return Some((li, ri));
        }
    }
    None
}

/// The hash path is taken only when `GroupKey` equality provably
/// coincides with the nested loop's `sql_eq`: both sides must be the
/// *same* typed buffer. Int×Float pairs fall back (f64 comparison and
/// integer key folding disagree beyond 2^53), as do float keys
/// containing NaN (`sql_eq` treats NaN as equal to everything, group
/// keys compare by bits) and `Mixed` columns.
pub(crate) fn hash_joinable(a: &ColumnData, b: &ColumnData) -> bool {
    if a.int_slice().is_some() && b.int_slice().is_some() {
        return true;
    }
    if a.bool_slice().is_some() && b.bool_slice().is_some() {
        return true;
    }
    if a.str_slice().is_some() && b.str_slice().is_some() {
        return true;
    }
    if let (Some(x), Some(y)) = (a.float_slice(), b.float_slice()) {
        let no_nan =
            |s: &[Option<f64>]| s.iter().all(|v| !v.is_some_and(|x| x.is_nan()));
        return no_nan(x) && no_nan(y);
    }
    false
}

/// Where an ORDER BY key comes from.
pub(crate) enum KeySource {
    /// A projected output column (pure alias or positional reference).
    OutCol(usize),
    /// Evaluated against the input.
    Input,
}

/// Decide how one ORDER BY expression resolves (schema-driven, so it is
/// computed once, not per row).
pub(crate) fn order_key_source(e: &Expr, out_schema: &Schema, input_schema: &Schema) -> KeySource {
    if let Expr::Column(c) = e {
        if c.qualifier.is_none() {
            if let Some(idx) = out_schema.try_resolve(None, &c.name) {
                // prefer the projected value when the name is not
                // resolvable in the input (pure alias)
                if input_schema.try_resolve(None, &c.name).is_none() {
                    return KeySource::OutCol(idx);
                }
            }
        }
    }
    // positional reference: ORDER BY 1
    if let Expr::Literal(paradise_sql::ast::Literal::Integer(i)) = e {
        let idx = (*i - 1) as usize;
        if *i >= 1 && idx < out_schema.len() {
            return KeySource::OutCol(idx);
        }
    }
    KeySource::Input
}

/// Collect non-windowed aggregate calls (deduplicated structurally).
pub(crate) fn collect_aggregate_calls(expr: &Expr, out: &mut Vec<FunctionCall>) {
    match expr {
        // aggregates cannot nest; no recursion into their args
        Expr::Function(f)
            if f.over.is_none() && is_aggregate_function(&f.name) && !out.contains(f) =>
        {
            out.push(f.clone());
        }
        Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => {}
        Expr::Function(f) => {
            for a in &f.args {
                collect_aggregate_calls(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregate_calls(left, out);
            collect_aggregate_calls(right, out);
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                collect_aggregate_calls(op, out);
            }
            for b in branches {
                collect_aggregate_calls(&b.when, out);
                collect_aggregate_calls(&b.then, out);
            }
            if let Some(e) = else_result {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregate_calls(expr, out);
            collect_aggregate_calls(low, out);
            collect_aggregate_calls(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregate_calls(expr, out);
            for e in list {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => collect_aggregate_calls(expr, out),
        _ => {}
    }
}

/// Replace aggregate calls by references to their synthetic columns.
pub(crate) fn replace_aggregate_calls(expr: Expr, calls: &[FunctionCall], names: &[String]) -> Expr {
    transform_expr(expr, &mut |e| match &e {
        Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => calls
            .iter()
            .position(|c| c == f)
            .map(|i| Expr::Column(paradise_sql::ast::ColumnRef::bare(names[i].clone()))),
        _ => None,
    })
}

/// Strict-mode check: columns outside aggregates must be grouped.
pub(crate) fn check_strict_grouping(
    expr: &Expr,
    grouped: &HashSet<String>,
    group_exprs: &[Expr],
) -> EngineResult<()> {
    // whole expression equals a grouping expression → fine
    if group_exprs.iter().any(|g| g == expr) {
        return Ok(());
    }
    match expr {
        Expr::Column(c) => {
            if grouped.contains(&c.name.to_ascii_lowercase()) {
                Ok(())
            } else {
                Err(EngineError::NotGrouped(c.name.clone()))
            }
        }
        Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => Ok(()),
        Expr::Function(f) => {
            for a in &f.args {
                check_strict_grouping(a, grouped, group_exprs)?;
            }
            Ok(())
        }
        Expr::Unary { expr, .. } => check_strict_grouping(expr, grouped, group_exprs),
        Expr::Binary { left, right, .. } => {
            check_strict_grouping(left, grouped, group_exprs)?;
            check_strict_grouping(right, grouped, group_exprs)
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                check_strict_grouping(op, grouped, group_exprs)?;
            }
            for b in branches {
                check_strict_grouping(&b.when, grouped, group_exprs)?;
                check_strict_grouping(&b.then, grouped, group_exprs)?;
            }
            if let Some(e) = else_result {
                check_strict_grouping(e, grouped, group_exprs)?;
            }
            Ok(())
        }
        Expr::Between { expr, low, high, .. } => {
            check_strict_grouping(expr, grouped, group_exprs)?;
            check_strict_grouping(low, grouped, group_exprs)?;
            check_strict_grouping(high, grouped, group_exprs)
        }
        Expr::InList { expr, list, .. } => {
            check_strict_grouping(expr, grouped, group_exprs)?;
            for e in list {
                check_strict_grouping(e, grouped, group_exprs)?;
            }
            Ok(())
        }
        Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            check_strict_grouping(expr, grouped, group_exprs)
        }
        _ => Ok(()),
    }
}

/// Infer better output types from the materialised columns (projection
/// plans default non-column expressions to FLOAT). O(1) per typed
/// column: the buffer knows its runtime type.
pub(crate) fn finalise_types(frame: &mut Frame) {
    let mut schema = Schema::default();
    for (i, c) in frame.schema.columns().iter().enumerate() {
        let dt = frame.column(i).data_type().unwrap_or(c.data_type);
        schema.push(Column { name: c.name.clone(), source: c.source.clone(), data_type: dt });
    }
    frame.schema = schema;
}

/// Indices of the first occurrence of every distinct row, in order.
pub(crate) fn distinct_indices(frame: &Frame) -> Vec<usize> {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(frame.len());
    let width = frame.schema.len();
    let mut kept = Vec::with_capacity(frame.len());
    for i in 0..frame.len() {
        let key: Vec<GroupKey> =
            (0..width).map(|c| frame.column(c).group_key_at(i)).collect();
        if seen.insert(key) {
            kept.push(i);
        }
    }
    kept
}

/// One `UNION [ALL]` step shared by both execution modes: branches
/// must have the same width, rows are appended under the first
/// branch's schema, and plain `UNION` keeps the first occurrence of
/// every row.
pub(crate) fn union_append(result: &mut Frame, next: Frame, all: bool) -> EngineResult<()> {
    if next.schema.len() != result.schema.len() {
        return Err(EngineError::Unsupported(format!(
            "UNION branches have different widths ({} vs {})",
            result.schema.len(),
            next.schema.len()
        )));
    }
    result.append(next)?;
    if !all {
        let kept = distinct_indices(result);
        if kept.len() < result.len() {
            *result = result.select_rows(&kept);
        }
    }
    Ok(())
}

/// Stable permutation of `0..n` ordering rows by the key columns.
/// Single typed key columns sort over the dense buffer directly.
pub(crate) fn sort_permutation(
    key_cols: &[Arc<ColumnData>],
    orders: &[SortOrder],
    n: usize,
) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    if let [col] = key_cols {
        let desc = orders[0] == SortOrder::Desc;
        let directed = |ord: std::cmp::Ordering| if desc { ord.reverse() } else { ord };
        if let Some(ints) = col.int_slice() {
            // Option<i64>'s ordering puts NULL first, like total_cmp
            perm.sort_by(|&a, &b| directed(ints[a].cmp(&ints[b])));
            return perm;
        }
        if let Some(floats) = col.float_slice() {
            perm.sort_by(|&a, &b| {
                directed(match (floats[a], floats[b]) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => {
                        x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                    }
                })
            });
            return perm;
        }
    }
    perm.sort_by(|&a, &b| {
        for (col, order) in key_cols.iter().zip(orders) {
            let ord = col.cmp_at(a, col, b);
            let ord = if *order == SortOrder::Desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    perm
}

pub(crate) fn dedupe_with_keys(
    rows: Vec<Row>,
    keys: Vec<Vec<Value>>,
) -> (Vec<Row>, Vec<Vec<Value>>) {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(rows.len());
    let has_keys = !keys.is_empty();
    let mut out_rows = Vec::with_capacity(rows.len());
    let mut out_keys = Vec::with_capacity(keys.len());
    for (i, row) in rows.into_iter().enumerate() {
        if seen.insert(row.iter().map(Value::group_key).collect()) {
            if has_keys {
                out_keys.push(keys[i].clone());
            }
            out_rows.push(row);
        }
    }
    (out_rows, out_keys)
}

pub(crate) fn sort_by_keys(
    rows: Vec<Row>,
    keys: Vec<Vec<Value>>,
    order: &[paradise_sql::ast::OrderByItem],
) -> Vec<Row> {
    let mut paired: Vec<(Vec<Value>, Row)> = keys.into_iter().zip(rows).collect();
    paired.sort_by(|(ka, _), (kb, _)| {
        for (i, item) in order.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = if item.order == SortOrder::Desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    paired.into_iter().map(|(_, r)| r).collect()
}

pub(crate) fn apply_limit_offset_frame(frame: &mut Frame, query: &Query) {
    if let Some(offset) = query.offset {
        frame.skip_rows(offset as usize);
    }
    if let Some(limit) = query.limit {
        frame.truncate(limit as usize);
    }
}
