//! Streaming-equivalence suite for the pull-based execution model:
//!
//! * every operator, run through the pipelined stream model with small
//!   batches, must produce results **byte-identical** (same rows, same
//!   order) to the same query run with one batch per partition (a batch
//!   size of the largest table's row count, so every scan partition
//!   arrives whole) — across hand-built plans, all skyline algorithms,
//!   and the Börzsönyi correlated / independent / anti-correlated datagen
//!   distributions;
//! * `LIMIT k` over a large scan must pull only `O(k / batch_size)`
//!   batches and read `O(k)` rows — the short-circuit the stream model
//!   exists for;
//! * the small-batch pipeline's `peak_rows_in_flight` must stay strictly
//!   below the one-batch run's on a multi-operator pipeline.

mod common;

use common::{distribution_rows, generate_with_null_fraction, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{Algorithm, DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};

/// Rows of the largest table of [`session_with`]: a batch this large puts
/// each scan partition in one batch.
const ROWS: usize = 400;

/// A session over the given config with a set of shared test tables, all
/// drawn from the shared distribution matrix generator.
fn session_with(config: SessionConfig) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    for (name, dist) in ["corr", "indep", "anti"].iter().zip(DISTRIBUTIONS) {
        let schema = Schema::new(
            (0..3)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
                .collect(),
        );
        ctx.register_table(*name, schema, distribution_rows(dist, 7, ROWS, 3))
            .unwrap();
    }
    // An incomplete variant of the independent data, exercising the
    // null-bitmap plan.
    let schema = Schema::new(
        (0..3)
            .map(|i| Field::new(format!("d{i}"), DataType::Float64, true))
            .collect(),
    );
    ctx.register_table(
        "inc",
        schema,
        generate_with_null_fraction("independent", 7, 300, 3, 0.25),
    )
    .unwrap();
    // Small integer tables for joins / aggregates / distinct.
    let g_schema = Schema::new(vec![
        Field::new("k", DataType::Int64, false),
        Field::new("v", DataType::Int64, true),
    ]);
    let g_rows: Vec<Row> = (0..200)
        .map(|i| {
            let v = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int64((i * 13) % 40)
            };
            Row::new(vec![Value::Int64(i % 7), v])
        })
        .collect();
    ctx.register_table("g", g_schema, g_rows).unwrap();
    let u_schema = Schema::new(vec![
        Field::new("k", DataType::Int64, false),
        Field::new("w", DataType::Int64, false),
    ]);
    let u_rows: Vec<Row> = (0..40)
        .map(|i| Row::new(vec![Value::Int64(i % 11), Value::Int64(i)]))
        .collect();
    ctx.register_table("u", u_schema, u_rows).unwrap();
    ctx
}

/// `sql` under `config` (small batches) and with one batch per partition.
fn run_both(config: SessionConfig, sql: &str, algorithm: Algorithm) -> (Vec<Row>, Vec<Row>) {
    let streaming = session_with(config.clone());
    let one_batch = session_with(config.with_batch_size(ROWS));
    let s = streaming
        .sql(sql)
        .and_then(|df| df.collect_with_algorithm(algorithm))
        .unwrap_or_else(|e| panic!("streaming failed for {sql:?}: {e}"));
    let m = one_batch
        .sql(sql)
        .and_then(|df| df.collect_with_algorithm(algorithm))
        .unwrap_or_else(|e| panic!("one-batch run failed for {sql:?}: {e}"));
    (s.rows, m.rows)
}

/// The operator gauntlet: narrow chains, breakers, joins, every skyline
/// algorithm family, on every datagen distribution — small-batch and
/// one-batch executions must match row-for-row, byte-for-byte.
#[test]
fn streaming_matches_materialized_across_operators() {
    let queries: Vec<(String, Algorithm)> = {
        let mut q: Vec<(String, Algorithm)> = Vec::new();
        for table in ["corr", "indep", "anti"] {
            q.push((format!("SELECT * FROM {table}"), Algorithm::Auto));
            q.push((
                format!("SELECT * FROM {table} WHERE d0 <= 0.8"),
                Algorithm::Auto,
            ));
            q.push((
                format!("SELECT d0 + d1 AS s, d2 FROM {table} LIMIT 37"),
                Algorithm::Auto,
            ));
            q.push((
                format!("SELECT * FROM {table} ORDER BY d0 DESC, d1"),
                Algorithm::Auto,
            ));
            q.push((
                format!("SELECT * FROM {table} SKYLINE OF d0 MIN, d1 MIN, d2 MIN"),
                Algorithm::Auto,
            ));
            q.push((
                format!("SELECT * FROM {table} SKYLINE OF d0 MIN, d1 MAX"),
                Algorithm::DistributedComplete,
            ));
            q.push((
                format!("SELECT * FROM {table} SKYLINE OF d0 MIN, d1 MIN"),
                Algorithm::NonDistributedComplete,
            ));
            q.push((
                format!("SELECT * FROM {table} SKYLINE OF d0 MIN"),
                Algorithm::Auto, // single-dim → MinMaxFilterExec
            ));
        }
        // Incomplete data: grouped local phase on the scan's partitions +
        // class-block merge (deterministic first-seen class order).
        q.push((
            "SELECT * FROM inc SKYLINE OF d0 MIN, d1 MIN, d2 MIN".into(),
            Algorithm::Auto,
        ));
        q.push((
            "SELECT * FROM inc SKYLINE OF d0 MIN, d1 MAX".into(),
            Algorithm::DistributedIncomplete,
        ));
        // Reference rewrite: NOT EXISTS → anti nested-loop join.
        q.push((
            "SELECT * FROM g SKYLINE OF k MIN, v MAX".into(),
            Algorithm::Reference,
        ));
        // Distinct, aggregation (ordered for a deterministic comparison),
        // and joins (hash + outer).
        q.push(("SELECT DISTINCT k FROM g".into(), Algorithm::Auto));
        q.push((
            "SELECT k, count(*) AS c, sum(v) AS s FROM g GROUP BY k ORDER BY k".into(),
            Algorithm::Auto,
        ));
        q.push((
            "SELECT g.k, g.v, u.w FROM g JOIN u ON g.k = u.k WHERE u.w > 3".into(),
            Algorithm::Auto,
        ));
        q.push((
            "SELECT g.k, u.w FROM g LEFT JOIN u ON g.k = u.k LIMIT 50".into(),
            Algorithm::Auto,
        ));
        q
    };
    for (sql, algorithm) in queries {
        for executors in [1usize, 4] {
            let config = SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(64);
            let (s, m) = run_both(config, &sql, algorithm);
            assert_eq!(
                s, m,
                "small-batch vs one-batch mismatch for {sql:?} ({algorithm:?}, {executors} executors)"
            );
        }
    }
}

/// Every algorithm forced per query stays byte-identical across batch
/// sizes on the anti-correlated table.
#[test]
fn streaming_matches_materialized_with_strategy_knobs() {
    let sql = "SELECT * FROM anti SKYLINE OF d0 MIN, d1 MIN, d2 MIN";
    for algorithm in Algorithm::paper_algorithms() {
        let config = SessionConfig::default()
            .with_executors(3)
            .with_batch_size(32);
        let (s, m) = run_both(config, sql, algorithm);
        assert_eq!(s, m, "mismatch under {algorithm:?}");
    }
}

/// The short-circuit acceptance criterion: `LIMIT k` over an N-row scan
/// reads O(k) rows and pulls O(k / batch_size) batches, while the run with
/// one batch per partition reads a whole partition.
#[test]
fn limit_short_circuits_the_scan() {
    let n: usize = 50_000;
    let executors = 4;
    let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| Row::new(vec![Value::Int64(i)]))
        .collect();

    let run = |batch_size: usize| {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(batch_size),
        );
        ctx.register_table("big", schema.clone(), rows.clone())
            .unwrap();
        // The limit sits above a projection: the pushdown rule moves it
        // below, so the short-circuit reaches the scan.
        ctx.sql("SELECT x + 1 AS y FROM big LIMIT 10")
            .unwrap()
            .collect()
            .unwrap()
    };

    let batch_size = SessionConfig::default().batch_size;
    let streamed = run(batch_size);
    assert_eq!(streamed.num_rows(), 10);
    assert!(
        streamed.metrics.rows_scanned <= 2 * batch_size as u64,
        "scan must stop after O(k) rows, read {} of {n}",
        streamed.metrics.rows_scanned
    );
    // O(k / batch_size) batches end-to-end: one scan batch, one projected
    // batch, one limited batch (plus slack for the boundaries).
    assert!(
        streamed.metrics.batches_emitted <= 8,
        "LIMIT pulled {} batches",
        streamed.metrics.batches_emitted
    );

    let one_batch = run(n);
    assert_eq!(one_batch.num_rows(), 10);
    assert!(
        one_batch.metrics.rows_scanned >= (n / executors) as u64,
        "one batch per partition reads a whole partition, read {}",
        one_batch.metrics.rows_scanned
    );
    assert!(streamed.metrics.rows_scanned < one_batch.metrics.rows_scanned);
    assert_eq!(streamed.rows, one_batch.rows, "same 10 rows either way");
}

/// Bounded peak memory: on a scan → filter → skyline → limit pipeline the
/// execution at batch 64 must hold strictly fewer rows in flight than the
/// run with one batch per partition.
///
/// One executor: with several, the peak depends on how the executors'
/// batches happen to overlap, so a one-batch run whose partitions run one
/// after another can peak below a small-batch run whose partitions all
/// run at once. On one executor the peak is a function of the batch size.
#[test]
fn streaming_peak_rows_in_flight_is_below_materialized() {
    let sql = "SELECT * FROM anti WHERE d0 <= 0.9 SKYLINE OF d0 MIN, d1 MIN, d2 MIN LIMIT 16";
    let run = |batch_size: usize| {
        let ctx = session_with(
            SessionConfig::default()
                .with_executors(1)
                .with_batch_size(batch_size),
        );
        ctx.sql(sql).unwrap().collect().unwrap()
    };
    let streamed = run(64);
    let one_batch = run(ROWS);
    assert_eq!(streamed.rows, one_batch.rows, "byte-identical results");
    assert!(
        streamed.metrics.peak_rows_in_flight < one_batch.metrics.peak_rows_in_flight,
        "batch-64 peak {} must be below the one-batch peak {}",
        streamed.metrics.peak_rows_in_flight,
        one_batch.metrics.peak_rows_in_flight
    );
}

/// EXPLAIN ANALYZE surfaces the stream gauges.
#[test]
fn explain_analyze_reports_stream_gauges() {
    let ctx = session_with(SessionConfig::default().with_executors(2));
    let report = ctx
        .sql("SELECT * FROM indep SKYLINE OF d0 MIN, d1 MIN")
        .unwrap()
        .explain_analyze()
        .unwrap();
    assert!(report.contains("== Physical Plan =="), "{report}");
    assert!(report.contains("batches emitted:"), "{report}");
    assert!(report.contains("peak rows in flight:"), "{report}");
    assert!(report.contains("dominance tests:"), "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small datasets (with NULLs): the streamed skyline plan —
    /// whichever algorithm Listing 8 selects — matches the run with one
    /// batch per partition byte-for-byte.
    #[test]
    fn random_skylines_stream_identically(
        rows in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![4 => (0i64..8).prop_map(Some), 1 => Just(None)],
                3,
            ),
            1..80,
        ),
        executors in 1usize..5,
    ) {
        let schema = Schema::new(
            (0..3)
                .map(|i| Field::new(format!("c{i}"), DataType::Int64, true))
                .collect(),
        );
        let table: Vec<Row> = rows
            .iter()
            .map(|r| {
                Row::new(
                    r.iter()
                        .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                        .collect(),
                )
            })
            .collect();
        let run = |batch_size: usize| {
            let ctx = SessionContext::with_config(
                SessionConfig::default()
                    .with_executors(executors)
                    .with_batch_size(batch_size),
            );
            ctx.register_table("t", schema.clone(), table.clone()).unwrap();
            ctx.sql("SELECT * FROM t SKYLINE OF c0 MIN, c1 MAX, c2 MIN")
                .unwrap()
                .collect()
                .unwrap()
                .rows
        };
        prop_assert_eq!(run(16), run(table.len()));
    }
}
