//! The row-at-a-time operators: the executable reference semantics
//! for the compiled physical plans.
//!
//! [`ExecMode::RowAtATime`](super::ExecMode) routes every query
//! through this module: rows are materialised through the row-view
//! adapter of [`Frame`], each operator walks `Vec<Row>`, and every
//! expression is evaluated per row with [`eval_expr`]. The
//! executor-equivalence suites run whole corpora through both paths
//! and assert identical frames, or the same error.

use std::collections::HashMap;

use paradise_sql::ast::{Expr, FunctionCall, Query, SelectItem};

use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, eval_predicate, EvalContext};
use crate::frame::{Frame, Row};
use crate::schema::{Column, Schema};
use crate::value::{DataType, GroupKey, Value};

use super::aggregate::{AggKind, Accumulator};
use super::{
    apply_limit_offset_frame, check_strict_grouping, collect_aggregate_calls, dedupe_with_keys,
    finalise_types, query_aggregates, replace_aggregate_calls, sort_by_keys, union_append, window,
    Executor, ProjPlan,
};

/// Execute a whole query (its `UNION` chain included) with the
/// row-major reference operators.
pub(super) fn execute_rows(exec: &Executor<'_>, query: &Query) -> EngineResult<Frame> {
    let mut result = execute_block_rows(exec, query)?;
    for (all, q) in &query.unions {
        let next = execute_block_rows(exec, q)?;
        union_append(&mut result, next, *all)?;
    }
    Ok(result)
}

/// Execute one `SELECT` block.
fn execute_block_rows(exec: &Executor<'_>, query: &Query) -> EngineResult<Frame> {
    let input = match &query.from {
        Some(table) => exec.eval_table(table)?,
        None => Frame::new(Schema::default(), vec![vec![]])?, // one empty row
    };
    let schema = input.schema.clone();
    let rows = input.into_rows();

    // WHERE, one row at a time
    let subquery_fn = |q: &Query| exec.execute(q);
    let filtered = match &query.where_clause {
        Some(pred) => {
            let ctx = EvalContext { schema: &schema, subquery: Some(&subquery_fn) };
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if eval_predicate(pred, &row, &ctx)? {
                    kept.push(row);
                }
            }
            kept
        }
        None => rows,
    };

    if query_aggregates(query) {
        aggregate_block_rows(exec, query, schema, filtered)
    } else {
        plain_block_rows(exec, query, schema, filtered)
    }
}

fn plain_block_rows(
    exec: &Executor<'_>,
    query: &Query,
    mut work_schema: Schema,
    mut work_rows: Vec<Row>,
) -> EngineResult<Frame> {
    // window functions over the filtered input
    let mut window_calls: Vec<FunctionCall> = Vec::new();
    for item in &query.items {
        if let SelectItem::Expr { expr, .. } = item {
            window::collect_window_calls(expr, &mut window_calls);
        }
    }
    for o in &query.order_by {
        window::collect_window_calls(&o.expr, &mut window_calls);
    }

    let rewrite_map =
        window::attach_window_columns(exec, &mut work_schema, &mut work_rows, window_calls)?;

    let rewrite = |expr: &Expr| window::replace_window_calls(expr.clone(), &rewrite_map);

    let subquery_fn = |q: &Query| exec.execute(q);
    let ctx = EvalContext { schema: &work_schema, subquery: Some(&subquery_fn) };

    // projection, one row at a time
    let (out_schema, item_exprs) = exec.projection_plan(query, &work_schema, &rewrite)?;
    let mut projected: Vec<Row> = Vec::with_capacity(work_rows.len());
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    let order_exprs: Vec<Expr> = query.order_by.iter().map(|o| rewrite(&o.expr)).collect();

    for row in &work_rows {
        let mut out = Vec::with_capacity(item_exprs.len());
        for plan in &item_exprs {
            match plan {
                ProjPlan::Splice(indices) => {
                    for &i in indices {
                        out.push(row[i].clone());
                    }
                }
                ProjPlan::Expr(e) => out.push(eval_expr(e, row, &ctx)?),
            }
        }
        if !order_exprs.is_empty() {
            let keys = exec.order_keys(&order_exprs, row, &out, &out_schema, &ctx)?;
            sort_keys.push(keys);
        }
        projected.push(out);
    }

    if query.distinct {
        // DISTINCT applies before ORDER BY; drop sort keys of removed rows.
        let (rows, keys) = dedupe_with_keys(projected, sort_keys);
        projected = rows;
        sort_keys = keys;
    }
    if !query.order_by.is_empty() {
        projected = sort_by_keys(projected, sort_keys, &query.order_by);
    }
    let mut frame = Frame::from_rows(out_schema, projected);
    finalise_types(&mut frame);
    apply_limit_offset_frame(&mut frame, query);
    Ok(frame)
}

fn aggregate_block_rows(
    exec: &Executor<'_>,
    query: &Query,
    schema: Schema,
    rows: Vec<Row>,
) -> EngineResult<Frame> {
    if query.has_wildcard() {
        return Err(EngineError::Unsupported("SELECT * with GROUP BY/aggregates".into()));
    }
    let subquery_fn = |q: &Query| exec.execute(q);
    let ctx = EvalContext { schema: &schema, subquery: Some(&subquery_fn) };

    // 1. group rows
    let mut group_order: Vec<Vec<GroupKey>> = Vec::new();
    let mut groups: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
    if query.group_by.is_empty() {
        group_order.push(Vec::new());
        groups.insert(Vec::new(), (0..rows.len()).collect());
    } else {
        for (ri, row) in rows.iter().enumerate() {
            let mut key = Vec::with_capacity(query.group_by.len());
            for g in &query.group_by {
                key.push(eval_expr(g, row, &ctx)?.group_key());
            }
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(ri);
        }
    }

    // 2. collect aggregate calls from items, HAVING and ORDER BY
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

    // 3. per group: synthetic row = representative row ++ agg values
    let mut ext_schema = schema.clone();
    let agg_col_names: Vec<String> =
        (0..agg_calls.len()).map(|i| format!("__agg{i}")).collect();
    for name in &agg_col_names {
        ext_schema.push(Column::new(name.clone(), DataType::Float));
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

    let rewrite =
        |expr: &Expr| -> Expr { replace_aggregate_calls(expr.clone(), &agg_calls, &agg_col_names) };

    let ext_ctx_schema = ext_schema.clone();
    let ext_ctx = EvalContext { schema: &ext_ctx_schema, subquery: Some(&subquery_fn) };

    let having_rewritten = query.having.as_ref().map(&rewrite);

    // projection plan over the extended schema
    let mut out_schema = Schema::default();
    let mut item_exprs: Vec<Expr> = Vec::with_capacity(query.items.len());
    for item in &query.items {
        let SelectItem::Expr { expr, alias } = item else { unreachable!() };
        let name = match alias {
            Some(a) => a.clone(),
            None => match expr {
                Expr::Column(c) => c.name.clone(),
                other => format!("{other}").to_lowercase(),
            },
        };
        out_schema.push(Column::new(name, DataType::Float));
        item_exprs.push(rewrite(expr));
    }
    let order_exprs: Vec<Expr> = query.order_by.iter().map(|o| rewrite(&o.expr)).collect();

    let mut out_rows: Vec<Row> = Vec::with_capacity(group_order.len());
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    for key in &group_order {
        let indices = &groups[key];
        let mut synthetic: Row = match indices.first() {
            Some(&i) => rows[i].clone(),
            None => vec![Value::Null; schema.len()],
        };
        for call in &agg_calls {
            let v = compute_aggregate_rows(call, indices, &rows, &ctx)?;
            synthetic.push(v);
        }
        if let Some(h) = &having_rewritten {
            if !eval_predicate(h, &synthetic, &ext_ctx)? {
                continue;
            }
        }
        let mut out = Vec::with_capacity(item_exprs.len());
        for e in &item_exprs {
            out.push(eval_expr(e, &synthetic, &ext_ctx)?);
        }
        if !order_exprs.is_empty() {
            let keys = exec.order_keys(&order_exprs, &synthetic, &out, &out_schema, &ext_ctx)?;
            sort_keys.push(keys);
        }
        out_rows.push(out);
    }

    if query.distinct {
        let (rows, keys) = dedupe_with_keys(out_rows, sort_keys);
        out_rows = rows;
        sort_keys = keys;
    }
    if !query.order_by.is_empty() {
        out_rows = sort_by_keys(out_rows, sort_keys, &query.order_by);
    }
    let mut frame = Frame::from_rows(out_schema, out_rows);
    finalise_types(&mut frame);
    apply_limit_offset_frame(&mut frame, query);
    Ok(frame)
}

fn compute_aggregate_rows(
    call: &FunctionCall,
    row_indices: &[usize],
    rows: &[Row],
    ctx: &EvalContext<'_>,
) -> EngineResult<Value> {
    let kind = AggKind::from_name(&call.name)
        .ok_or_else(|| EngineError::UnknownFunction(call.name.clone()))?;
    if call.args.len() != kind.arity() {
        return Err(EngineError::WrongArity {
            function: call.name.clone(),
            expected: kind.arity().to_string(),
            got: call.args.len(),
        });
    }
    let mut acc = Accumulator::new(kind, call.distinct);
    for &ri in row_indices {
        let row = &rows[ri];
        let mut args = Vec::with_capacity(call.args.len());
        for a in &call.args {
            match a {
                Expr::Wildcard => args.push(Value::Int(1)),
                other => args.push(eval_expr(other, row, ctx)?),
            }
        }
        acc.update(&args)?;
    }
    Ok(acc.finish())
}
