//! Streaming-equivalence suite for the pull-based execution model:
//!
//! * every operator, run through the pipelined stream model, must produce
//!   results **byte-identical** (same rows, same order) to the seed's
//!   materialized model (`streaming_execution = false` re-materializes
//!   every operator boundary) — across hand-built plans, all skyline
//!   algorithms, and the Börzsönyi correlated / independent /
//!   anti-correlated datagen distributions;
//! * `LIMIT k` over a large scan must pull only `O(k / batch_size)`
//!   batches and read `O(k)` rows — the short-circuit the stream model
//!   exists for;
//! * the streamed pipeline's `peak_rows_in_flight` must stay strictly
//!   below the materialized model's on a multi-operator pipeline.

mod common;

use common::{distribution_rows, generate_with_null_fraction, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    Algorithm, DataType, DominanceKernel, Field, Row, Schema, SessionConfig, SessionContext, Value,
};

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
        ctx.register_table(*name, schema, distribution_rows(dist, 7, 400, 3))
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

fn run_both(config: SessionConfig, sql: &str, algorithm: Algorithm) -> (Vec<Row>, Vec<Row>) {
    let streaming = session_with(config.clone().with_streaming_execution(true));
    let materialized = session_with(config.with_streaming_execution(false));
    let s = streaming
        .sql(sql)
        .and_then(|df| df.collect_with_algorithm(algorithm))
        .unwrap_or_else(|e| panic!("streaming failed for {sql:?}: {e}"));
    let m = materialized
        .sql(sql)
        .and_then(|df| df.collect_with_algorithm(algorithm))
        .unwrap_or_else(|e| panic!("materialized failed for {sql:?}: {e}"));
    (s.rows, m.rows)
}

/// The operator gauntlet: narrow chains, breakers, joins, every skyline
/// algorithm family, on every datagen distribution — streamed and
/// materialized executions must match row-for-row, byte-for-byte.
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
                Algorithm::SortFilterSkyline,
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
        // Incomplete data: null-bitmap exchange + grouped local phase +
        // all-pairs global (deterministic first-seen class order).
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
                "streaming vs materialized mismatch for {sql:?} ({algorithm:?}, {executors} executors)"
            );
        }
    }
}

/// Strategy knobs ride along: hierarchical merge, grid partitioning, and
/// the scalar dominance path must all stay byte-identical under streaming.
#[test]
fn streaming_matches_materialized_with_strategy_knobs() {
    use sparkline::SkylinePartitioning;
    let sql = "SELECT * FROM anti SKYLINE OF d0 MIN, d1 MIN, d2 MIN";
    let configs: Vec<SessionConfig> = vec![
        SessionConfig::default()
            .with_executors(5)
            .with_batch_size(32)
            .with_hierarchical_merge_min_partitions(2)
            .with_merge_fan_in(2),
        SessionConfig::default()
            .with_executors(5)
            .with_batch_size(32)
            .with_skyline_partitioning(SkylinePartitioning::Grid),
        SessionConfig::default()
            .with_executors(3)
            .with_batch_size(32)
            .with_skyline_partitioning(SkylinePartitioning::AngleBased),
        SessionConfig::default()
            .with_executors(3)
            .with_batch_size(32)
            .with_dominance_kernel(DominanceKernel::Scalar),
    ];
    for config in configs {
        let (s, m) = run_both(config.clone(), sql, Algorithm::DistributedComplete);
        assert_eq!(s, m, "mismatch under {config:?}");
    }
}

/// The short-circuit acceptance criterion: `LIMIT k` over an N-row scan
/// reads O(k) rows and pulls O(k / batch_size) batches, while the
/// materialized model reads all N.
#[test]
fn limit_short_circuits_the_scan() {
    let n: usize = 50_000;
    let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| Row::new(vec![Value::Int64(i)]))
        .collect();

    let run = |streaming: bool| {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(4)
                .with_streaming_execution(streaming),
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

    let streamed = run(true);
    assert_eq!(streamed.num_rows(), 10);
    let batch_size = SessionConfig::default().batch_size as u64;
    assert!(
        streamed.metrics.rows_scanned <= 2 * batch_size,
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

    let materialized = run(false);
    assert_eq!(materialized.num_rows(), 10);
    assert_eq!(
        materialized.metrics.rows_scanned, n as u64,
        "the materialized model reads everything"
    );
    assert_eq!(streamed.rows, materialized.rows, "same 10 rows either way");
}

/// Bounded peak memory: on a scan → filter → skyline → limit pipeline the
/// streamed execution must hold strictly fewer rows in flight than the
/// materialized model.
#[test]
fn streaming_peak_rows_in_flight_is_below_materialized() {
    let sql = "SELECT * FROM anti WHERE d0 <= 0.9 SKYLINE OF d0 MIN, d1 MIN, d2 MIN LIMIT 16";
    let run = |streaming: bool| {
        let ctx = session_with(
            SessionConfig::default()
                .with_executors(4)
                .with_batch_size(32)
                .with_streaming_execution(streaming),
        );
        ctx.sql(sql).unwrap().collect().unwrap()
    };
    let streamed = run(true);
    let materialized = run(false);
    assert_eq!(streamed.rows, materialized.rows, "byte-identical results");
    assert!(
        streamed.metrics.peak_rows_in_flight < materialized.metrics.peak_rows_in_flight,
        "streaming peak {} must be below materialized peak {}",
        streamed.metrics.peak_rows_in_flight,
        materialized.metrics.peak_rows_in_flight
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
    /// whichever algorithm Listing 8 selects — matches the materialized
    /// execution byte-for-byte.
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
        let run = |streaming: bool| {
            let ctx = SessionContext::with_config(
                SessionConfig::default()
                    .with_executors(executors)
                    .with_batch_size(16)
                    .with_streaming_execution(streaming),
            );
            ctx.register_table("t", schema.clone(), table.clone()).unwrap();
            ctx.sql("SELECT * FROM t SKYLINE OF c0 MIN, c1 MAX, c2 MIN")
                .unwrap()
                .collect()
                .unwrap()
                .rows
        };
        prop_assert_eq!(run(true), run(false));
    }
}
