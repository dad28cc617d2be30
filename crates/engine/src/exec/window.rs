//! Window function evaluation.
//!
//! Semantics follow the SQL default frame:
//! * `OVER (PARTITION BY p ORDER BY s)` — running aggregate from the
//!   partition start to the current row **including peers** (rows with an
//!   equal sort key), i.e. `RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT
//!   ROW`;
//! * `OVER (PARTITION BY p)` / `OVER ()` — the whole partition for every
//!   row.
//!
//! Besides the aggregate kinds, `ROW_NUMBER()`, `RANK()` and
//! `DENSE_RANK()` are supported.
//!
//! This module is the row-at-a-time reference: partition keys, sort
//! keys and aggregate arguments are evaluated per row with
//! [`eval_expr`], and each computed window is appended to every row.
//! The compiled plans compute the same values with their own
//! column-at-a-time operators (`crate::plan`); the two share only the
//! [`Accumulator`]s.

use std::collections::HashMap;

use paradise_sql::ast::{ColumnRef, Expr, FunctionCall, Query, SortOrder};
use paradise_sql::visit::transform_expr;

use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, EvalContext};
use crate::frame::Row;
use crate::schema::{Column, Schema};
use crate::value::{DataType, GroupKey, Value};

use super::aggregate::{AggKind, Accumulator};
use super::Executor;

/// Collect window function calls (structurally deduplicated).
pub fn collect_window_calls(expr: &Expr, out: &mut Vec<FunctionCall>) {
    match expr {
        Expr::Function(f) if f.over.is_some() && !out.contains(f) => {
            out.push(f.clone());
        }
        Expr::Function(f) if f.over.is_some() => {}
        Expr::Function(f) => {
            for a in &f.args {
                collect_window_calls(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_window_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_window_calls(left, out);
            collect_window_calls(right, out);
        }
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                collect_window_calls(op, out);
            }
            for b in branches {
                collect_window_calls(&b.when, out);
                collect_window_calls(&b.then, out);
            }
            if let Some(e) = else_result {
                collect_window_calls(e, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_window_calls(expr, out);
            collect_window_calls(low, out);
            collect_window_calls(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_window_calls(expr, out);
            for e in list {
                collect_window_calls(e, out);
            }
        }
        Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => collect_window_calls(expr, out),
        _ => {}
    }
}

/// Compute every window call over `rows` and append one synthetic
/// column per call (to `schema` and to every row), returning the
/// (call → column name) map used to rewrite expressions.
pub fn attach_window_columns(
    executor: &Executor<'_>,
    schema: &mut Schema,
    rows: &mut [Row],
    calls: Vec<FunctionCall>,
) -> EngineResult<Vec<(FunctionCall, String)>> {
    let mut map = Vec::with_capacity(calls.len());
    for (i, call) in calls.into_iter().enumerate() {
        let name = format!("__win{i}");
        let values = compute_window(executor, schema, rows, &call)?;
        for (row, v) in rows.iter_mut().zip(values) {
            row.push(v);
        }
        schema.push(Column::new(name.clone(), DataType::Float));
        map.push((call, name));
    }
    Ok(map)
}

/// Replace window calls with their synthetic column references.
pub fn replace_window_calls(expr: Expr, map: &[(FunctionCall, String)]) -> Expr {
    if map.is_empty() {
        return expr;
    }
    transform_expr(expr, &mut |e| match &e {
        Expr::Function(f) if f.over.is_some() => map
            .iter()
            .find(|(c, _)| c == f)
            .map(|(_, name)| Expr::Column(ColumnRef::bare(name.clone()))),
        _ => None,
    })
}

/// Compute one window call: one output value per row, in row order.
fn compute_window(
    executor: &Executor<'_>,
    schema: &Schema,
    rows: &[Row],
    call: &FunctionCall,
) -> EngineResult<Vec<Value>> {
    let over = call.over.as_ref().expect("window call");
    let upper = call.name.to_ascii_uppercase();
    let ranking = matches!(upper.as_str(), "ROW_NUMBER" | "RANK" | "DENSE_RANK");
    let agg_kind = AggKind::from_name(&call.name);
    if !ranking && agg_kind.is_none() {
        return Err(EngineError::UnknownFunction(format!("{} OVER", call.name)));
    }
    let subquery_fn = |q: &Query| executor.execute(q);
    let ctx = EvalContext { schema, subquery: Some(&subquery_fn) };
    // one value per row for each expression (expression-major, so the
    // first failing expression reports its first failing row)
    let per_row = |e: &Expr| -> EngineResult<Vec<Value>> {
        rows.iter().map(|r| eval_expr(e, r, &ctx)).collect()
    };

    let part_vals: Vec<Vec<Value>> =
        over.partition_by.iter().map(per_row).collect::<EngineResult<_>>()?;
    let key_vals: Vec<Vec<Value>> =
        over.order_by.iter().map(|o| per_row(&o.expr)).collect::<EngineResult<_>>()?;
    let arg_vals: Vec<Vec<Value>> = if ranking {
        Vec::new()
    } else {
        call.args
            .iter()
            .map(|a| match a {
                Expr::Wildcard => Ok(vec![Value::Int(1); rows.len()]),
                other => per_row(other),
            })
            .collect::<EngineResult<_>>()?
    };

    // partitions in first-appearance order
    let mut slots: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    for ri in 0..rows.len() {
        let key: Vec<GroupKey> = part_vals.iter().map(|c| c[ri].group_key()).collect();
        let slot = *slots.entry(key).or_insert_with(|| {
            partitions.push(Vec::new());
            partitions.len() - 1
        });
        partitions[slot].push(ri);
    }

    let cmp = |a: usize, b: usize| -> std::cmp::Ordering {
        for (col, o) in key_vals.iter().zip(&over.order_by) {
            let ord = col[a].total_cmp(&col[b]);
            let ord = if o.order == SortOrder::Desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };
    // equal sort keys ⇒ peers
    let peers = |a: usize, b: usize| key_vals.iter().all(|c| c[a].total_cmp(&c[b]).is_eq());

    let mut out = vec![Value::Null; rows.len()];
    for mut part in partitions {
        // stable: ties keep input order
        part.sort_by(|&a, &b| cmp(a, b));
        let Some(kind) = agg_kind else {
            let (mut rank, mut dense) = (0i64, 0i64);
            for (i, &ri) in part.iter().enumerate() {
                if i == 0 || key_vals.is_empty() || !peers(part[i - 1], ri) {
                    rank = i as i64 + 1;
                    dense += 1;
                }
                out[ri] = Value::Int(match upper.as_str() {
                    "ROW_NUMBER" => i as i64 + 1,
                    "RANK" => rank,
                    _ => dense,
                });
            }
            continue;
        };
        // without ORDER BY every row of the partition is a peer: the
        // running aggregate covers the whole partition
        let mut acc = Accumulator::new(kind, call.distinct);
        let mut i = 0;
        while i < part.len() {
            let mut j = i + 1;
            while j < part.len() && peers(part[i], part[j]) {
                j += 1;
            }
            for &ri in &part[i..j] {
                let args: Vec<Value> = arg_vals.iter().map(|c| c[ri].clone()).collect();
                acc.update(&args)?;
            }
            let v = acc.finish();
            for &ri in &part[i..j] {
                out[ri] = v.clone();
            }
            i = j;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::frame::Frame;
    use paradise_sql::parse_query;

    fn catalog() -> Catalog {
        let schema = Schema::from_pairs(&[
            ("g", DataType::Text),
            ("t", DataType::Integer),
            ("v", DataType::Integer),
        ]);
        let rows = vec![
            vec![Value::Str("a".into()), Value::Int(1), Value::Int(10)],
            vec![Value::Str("a".into()), Value::Int(2), Value::Int(20)],
            vec![Value::Str("b".into()), Value::Int(1), Value::Int(5)],
            vec![Value::Str("a".into()), Value::Int(3), Value::Int(30)],
            vec![Value::Str("b".into()), Value::Int(2), Value::Int(7)],
        ];
        let mut c = Catalog::new();
        c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
        c
    }

    fn run(sql: &str) -> Frame {
        let c = catalog();
        let e = Executor::new(&c);
        e.execute(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn running_sum_per_partition() {
        let f = run("SELECT g, t, SUM(v) OVER (PARTITION BY g ORDER BY t) AS rs FROM d");
        // input order preserved
        let rs: Vec<Value> = f.column_values(2).collect();
        assert_eq!(
            rs,
            vec![Value::Int(10), Value::Int(30), Value::Int(5), Value::Int(60), Value::Int(12)]
        );
    }

    #[test]
    fn whole_partition_without_order() {
        let f = run("SELECT g, SUM(v) OVER (PARTITION BY g) AS total FROM d");
        let totals: Vec<Value> = f.column_values(1).collect();
        assert_eq!(
            totals,
            vec![Value::Int(60), Value::Int(60), Value::Int(12), Value::Int(60), Value::Int(12)]
        );
    }

    #[test]
    fn global_window() {
        let f = run("SELECT COUNT(*) OVER () AS n FROM d");
        assert!(f.column_values(0).all(|v| v == Value::Int(5)));
    }

    #[test]
    fn peers_share_running_value() {
        let c = {
            let schema = Schema::from_pairs(&[("k", DataType::Integer), ("v", DataType::Integer)]);
            let rows = vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(30)],
            ];
            let mut c = Catalog::new();
            c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(&parse_query("SELECT SUM(v) OVER (ORDER BY k) AS rs FROM d").unwrap())
            .unwrap();
        let rs: Vec<Value> = f.column_values(0).collect();
        // k=1 rows are peers: both see 30; k=2 sees 60
        assert_eq!(rs, vec![Value::Int(30), Value::Int(30), Value::Int(60)]);
    }

    #[test]
    fn row_number_and_rank() {
        let f = run(
            "SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) AS rn FROM d \
             ORDER BY g, rn",
        );
        let first = f.row(0);
        assert_eq!(first[0], Value::Str("a".into()));
        assert_eq!(first[1], Value::Int(30));
        assert_eq!(first[2], Value::Int(1));
    }

    #[test]
    fn rank_with_ties() {
        let c = {
            let schema = Schema::from_pairs(&[("v", DataType::Integer)]);
            let rows = vec![
                vec![Value::Int(10)],
                vec![Value::Int(10)],
                vec![Value::Int(20)],
            ];
            let mut c = Catalog::new();
            c.register("d", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(&parse_query("SELECT RANK() OVER (ORDER BY v) AS r FROM d").unwrap())
            .unwrap();
        let rs: Vec<Value> = f.column_values(0).collect();
        assert_eq!(rs, vec![Value::Int(1), Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn regr_intercept_window_like_the_paper() {
        // regression y over x, running per partition
        let c = {
            let schema = Schema::from_pairs(&[
                ("x", DataType::Float),
                ("y", DataType::Float),
                ("p", DataType::Integer),
                ("t", DataType::Integer),
            ]);
            // y = 3x + 2 exactly
            let rows = (1..=4)
                .map(|i| {
                    vec![
                        Value::Float(i as f64),
                        Value::Float(3.0 * i as f64 + 2.0),
                        Value::Int(1),
                        Value::Int(i),
                    ]
                })
                .collect();
            let mut c = Catalog::new();
            c.register("d3", Frame::new(schema, rows).unwrap()).unwrap();
            c
        };
        let e = Executor::new(&c);
        let f = e
            .execute(
                &parse_query(
                    "SELECT regr_intercept(y, x) OVER (PARTITION BY p ORDER BY t) AS i FROM d3",
                )
                .unwrap(),
            )
            .unwrap();
        // first row: single point → NULL (sxx = 0); afterwards intercept = 2
        assert_eq!(f.value(0, 0), Value::Null);
        let Value::Float(i2) = f.value(1, 0) else { panic!() };
        assert!((i2 - 2.0).abs() < 1e-9);
        let Value::Float(i4) = f.value(3, 0) else { panic!() };
        assert!((i4 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_window_function_errors() {
        let c = catalog();
        let e = Executor::new(&c);
        let err = e
            .execute(&parse_query("SELECT nope(v) OVER () FROM d").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownFunction(_)));
    }

    #[test]
    fn both_modes_agree_on_windows() {
        let c = catalog();
        let sql = "SELECT g, SUM(v) OVER (PARTITION BY g ORDER BY t) AS rs FROM d";
        let q = parse_query(sql).unwrap();
        let columnar = Executor::new(&c).execute(&q).unwrap();
        let row_mode = Executor::with_options(
            &c,
            crate::exec::ExecOptions { mode: crate::exec::ExecMode::RowAtATime, ..Default::default() },
        )
        .execute(&q)
        .unwrap();
        assert_eq!(columnar, row_mode);
    }
}
