//! Executor-equivalence suite: every query of the roundtrip corpus is
//! executed twice over the same `SmartRoomSim` data — through the
//! compiled physical-plan path (the default) and the row-at-a-time
//! reference path (`ExecMode::RowAtATime`) — and the resulting frames
//! must be identical (or both paths must fail with the same error).
//! An error corpus runs the same check over the populated stream and
//! over an empty one, where errors raised only while evaluating rows
//! must not surface.

use paradise::prelude::*;

/// The corpus of `crates/sql/tests/roundtrip.rs`: paper-style queries
/// over the ubisense `stream(x, y, z, t)` schema, spanning every
/// syntactic feature the dialect supports.
const CORPUS: &[&str] = &[
    // projection / scan shapes
    "SELECT * FROM stream",
    "SELECT x, y FROM stream",
    "SELECT DISTINCT x, y FROM stream",
    "SELECT x AS px, y AS py FROM stream",
    // filters
    "SELECT * FROM stream WHERE z < 2",
    "SELECT x FROM stream WHERE x > y AND z < 2",
    "SELECT x FROM stream WHERE x > 1 OR NOT y < 2",
    "SELECT x FROM stream WHERE x + 1 > y * 2 - 3",
    "SELECT x FROM stream WHERE z BETWEEN 1 AND 2",
    "SELECT x FROM stream WHERE t IN (1, 2, 3)",
    "SELECT x FROM stream WHERE name LIKE 'bob%'",
    "SELECT x FROM stream WHERE y IS NULL",
    "SELECT x FROM stream WHERE y IS NOT NULL",
    // aggregation
    "SELECT AVG(z) FROM stream",
    "SELECT COUNT(*) FROM stream",
    "SELECT x, AVG(z) AS za FROM stream GROUP BY x",
    "SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x HAVING SUM(z) > 10",
    // ordering and paging
    "SELECT x FROM stream ORDER BY x",
    "SELECT x FROM stream ORDER BY x DESC, y ASC LIMIT 5",
    "SELECT x FROM stream ORDER BY t LIMIT 10 OFFSET 20",
    // joins
    "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t",
    "SELECT a.x, b.y FROM stream a LEFT JOIN stream b ON a.t = b.t WHERE b.y IS NULL",
    // subqueries and set operations
    "SELECT x FROM (SELECT x FROM stream)",
    "SELECT za FROM (SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x)",
    "SELECT x FROM stream UNION SELECT y FROM stream",
    // expressions
    "SELECT CASE WHEN z < 1 THEN 'floor' ELSE 'air' END FROM stream",
    "SELECT CAST(t AS FLOAT) FROM stream",
    // windows (the paper's §4.2 rewrite target)
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM stream",
    "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
     FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
     WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)",
    // ML-style UDF from Table 1
    "SELECT filterByClass(z) FROM stream",
];

/// Extra queries over the tagged stream (text, boolean and NULL-bearing
/// columns) so string comparison, LIKE, CASE and boolean predicates run
/// over typed buffers too.
const TAGGED_EXTRAS: &[&str] = &[
    "SELECT tag, valid FROM tagged WHERE valid",
    "SELECT tag FROM tagged WHERE NOT valid ORDER BY tag, t LIMIT 7",
    "SELECT who FROM tagged WHERE who LIKE 'p1%'",
    "SELECT who, COUNT(*) AS n FROM tagged GROUP BY who ORDER BY n DESC, who",
    "SELECT CASE WHEN valid THEN who ELSE 'lost' END AS label, z FROM tagged ORDER BY 1 LIMIT 9",
    "SELECT who || '!' AS shout FROM tagged WHERE z > 1.2",
    "SELECT DISTINCT who FROM tagged ORDER BY who",
    "SELECT tag, SUM(z) OVER (PARTITION BY who ORDER BY t) AS rz FROM tagged",
];

/// Queries that fail on the populated stream. Each runs over the
/// populated catalog and with `stream` empty; over no rows, errors the
/// reference raises only while evaluating a row must not surface.
const ERROR_CORPUS: &[&str] = &[
    // unknown column: projected (raised statically), filtered, in an
    // expression and in a grouping key
    "SELECT nope FROM stream",
    "SELECT x FROM stream WHERE nope > 1",
    "SELECT x + nope FROM stream",
    "SELECT nope, COUNT(*) FROM stream GROUP BY nope",
    // ... behind a window whose partition key fails first
    "SELECT nope, SUM(x) OVER (PARTITION BY x + 'a') FROM stream",
    // unknown scalar function
    "SELECT nofn(x) FROM stream",
    "SELECT x FROM stream WHERE nofn(x) > 1",
    // wrong aggregate arity, with and without GROUP BY
    "SELECT x, SUM(x, x) FROM stream GROUP BY x",
    "SELECT SUM(x, x) FROM stream",
    // `*` outside COUNT
    "SELECT ABS(*) FROM stream",
    "SELECT * , COUNT(*) FROM stream",
    // unknown CAST target
    "SELECT CAST(x AS BLOB) FROM stream",
    "SELECT x FROM stream WHERE CAST(t AS BLOB) IS NULL",
    // UNION width mismatch
    "SELECT x FROM stream UNION SELECT x, y FROM stream",
    // subqueries over a UNION
    "SELECT x FROM stream WHERE x > (SELECT x FROM stream UNION SELECT y FROM stream)",
    "SELECT x FROM stream WHERE x < (SELECT MAX(y) FROM stream UNION ALL SELECT MIN(y) FROM stream)",
    "SELECT v FROM (SELECT x AS v FROM stream UNION SELECT nope FROM stream)",
];

/// The populated catalog with `stream` replaced by an empty table of
/// the same schema.
fn catalog_with_empty_stream() -> Catalog {
    let mut c = catalog();
    let schema = c.get("stream").unwrap().schema.clone();
    c.register_or_replace("stream", Frame::empty(schema));
    c
}

fn catalog() -> Catalog {
    let config = SmartRoomConfig { persons: 4, switch_probability: 0.02, ..Default::default() };
    let mut sim = SmartRoomSim::with_config(7, config.clone());
    let stream = sim.ubisense_positions(60);

    // tagged stream extended with a text column (and NULLs for invalid
    // readings) to exercise the Str/Bool/Mixed buffers
    let mut sim2 = SmartRoomSim::with_config(8, config);
    let base = sim2.ubisense_tagged(60);
    let mut schema = base.schema.clone();
    schema.push(paradise::engine::Column::new("who", DataType::Text));
    let rows: Vec<Row> = base
        .iter_rows()
        .map(|mut r| {
            let who = match (&r[0], &r[5]) {
                (Value::Int(tag), Value::Bool(true)) => Value::Str(format!("p{}", tag - 100)),
                _ => Value::Null,
            };
            r.push(who);
            r
        })
        .collect();
    let tagged = Frame::new(schema, rows).unwrap();

    let mut c = Catalog::new();
    c.register("stream", stream).unwrap();
    c.register("tagged", tagged).unwrap();
    c
}

fn assert_equivalent(catalog: &Catalog, sql: &str) {
    let query = parse_query(sql).unwrap_or_else(|e| panic!("corpus query fails to parse: {sql}: {e}"));
    // ExecMode::Compiled is the default: compile-once/run-many physical plans
    let compiled = Executor::new(catalog).execute(&query);
    let row_mode = Executor::with_options(
        catalog,
        ExecOptions { mode: ExecMode::RowAtATime, ..Default::default() },
    )
    .execute(&query);
    match (&compiled, &row_mode) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.schema, b.schema, "schemas diverge for: {sql}");
            assert_eq!(a.to_rows(), b.to_rows(), "rows diverge for: {sql}");
            assert_eq!(a, b, "frame equality diverges for: {sql}");
            assert_eq!(a.size_bytes(), b.size_bytes(), "size accounting diverges for: {sql}");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "errors diverge for: {sql}");
        }
        (a, b) => panic!(
            "modes disagree for {sql}: {:?} vs {:?}",
            a.as_ref().map(|f| f.len()),
            b.as_ref().map(|f| f.len())
        ),
    }
}

/// The compiled path must also agree when the plan is built once and
/// re-run (the compile-once/run-many contract of continuous queries).
fn assert_plan_reuse(catalog: &Catalog, sql: &str) {
    let query = parse_query(sql).unwrap();
    let exec = Executor::new(catalog);
    let plan = exec.compile(&query).unwrap_or_else(|e| panic!("{sql} does not compile: {e}"));
    let once = exec.run_plan(&plan);
    let twice = exec.run_plan(&plan);
    match (once, twice, exec.execute(&query)) {
        (Ok(a), Ok(b), Ok(c)) => {
            assert_eq!(a, b, "re-running a plan changed the result for: {sql}");
            assert_eq!(a, c, "plan reuse diverges from execute for: {sql}");
        }
        (Err(a), Err(b), Err(c)) => {
            assert_eq!(a.to_string(), b.to_string(), "errors diverge for: {sql}");
            assert_eq!(a.to_string(), c.to_string(), "errors diverge for: {sql}");
        }
        other => panic!("plan reuse disagrees for {sql}: {other:?}"),
    }
}

#[test]
fn corpus_queries_agree_between_row_and_columnar_paths() {
    let catalog = catalog();
    for sql in CORPUS {
        assert_equivalent(&catalog, sql);
    }
}

#[test]
fn tagged_queries_agree_between_row_and_columnar_paths() {
    let catalog = catalog();
    for sql in TAGGED_EXTRAS {
        assert_equivalent(&catalog, sql);
    }
}

#[test]
fn error_corpus_agrees_on_populated_and_empty_streams() {
    let populated = catalog();
    let empty = catalog_with_empty_stream();
    for sql in ERROR_CORPUS {
        let query = parse_query(sql).unwrap();
        assert!(
            Executor::new(&populated).execute(&query).is_err(),
            "error corpus query succeeds on the populated stream: {sql}"
        );
        assert_equivalent(&populated, sql);
        assert_equivalent(&empty, sql);
    }
}

#[test]
fn corpus_queries_survive_compile_once_run_many() {
    let catalog = catalog();
    for sql in CORPUS.iter().chain(TAGGED_EXTRAS) {
        assert_plan_reuse(&catalog, sql);
    }
}

#[test]
fn input_construction_path_does_not_matter() {
    // a frame built row-by-row through the row-view adapter must execute
    // identically to one built in bulk from the same rows
    let config = SmartRoomConfig { persons: 3, switch_probability: 0.02, ..Default::default() };
    let bulk = SmartRoomSim::with_config(11, config).ubisense_positions(40);
    let mut incremental = Frame::empty(bulk.schema.clone());
    for row in bulk.iter_rows() {
        incremental.push_row(row).unwrap();
    }
    assert_eq!(incremental, bulk);
    assert_eq!(incremental.size_bytes(), bulk.size_bytes());

    let mut c1 = Catalog::new();
    c1.register("stream", bulk).unwrap();
    let mut c2 = Catalog::new();
    c2.register("stream", incremental).unwrap();
    for sql in CORPUS {
        let query = parse_query(sql).unwrap();
        let a = Executor::new(&c1).execute(&query);
        let b = Executor::new(&c2).execute(&query);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "construction path changed result for: {sql}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("construction path changed success for: {sql}"),
        }
    }
}
