//! Optimizer rules must never change results — only plans and cost. Each
//! §5.4 rule is checked for semantic neutrality against
//! `common::collect_unoptimized` (the same query with no rule but the
//! `EXISTS` rewrite) and for actually firing.

mod common;

use common::collect_unoptimized;
use sparkline::{Algorithm, SessionConfig, SessionContext};
use sparkline_datagen::{airbnb, register_airbnb, skyline_query_for, Variant};

fn session(config: SessionConfig) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    register_airbnb(&ctx, 1000, 41, Variant::Complete).unwrap();
    // A non-reductive join partner (1:1 on id).
    let rows: Vec<sparkline::Row> = (0..1000i64)
        .map(|i| sparkline::Row::new(vec![i.into(), ((i * 13) % 50).into()]))
        .collect();
    ctx.register_table(
        "scores",
        sparkline::Schema::new(vec![
            sparkline::Field::new("listing_id", sparkline::DataType::Int64, false),
            sparkline::Field::new("score", sparkline::DataType::Int64, false),
        ]),
        rows,
    )
    .unwrap();
    ctx.register_foreign_key("airbnb", "id", "scores", "listing_id")
        .unwrap();
    ctx
}

#[test]
fn single_dim_rewrite_is_semantically_neutral() {
    let ctx = session(SessionConfig::default());
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 1, true);
    let df = ctx.sql(&sql).unwrap();
    assert!(df.explain().unwrap().contains("MinMaxFilterExec"));
    assert_eq!(
        df.collect().unwrap().sorted_display(),
        collect_unoptimized(&ctx, &sql).unwrap().sorted_display()
    );
}

#[test]
fn single_dim_rewrite_handles_max_direction() {
    let ctx = session(SessionConfig::default());
    let sql = "SELECT * FROM airbnb SKYLINE OF accommodates MAX";
    let result = ctx.sql(sql).unwrap().collect().unwrap();
    assert!(result.num_rows() >= 1);
    // All results attain the maximum.
    let max = result
        .rows
        .iter()
        .map(|r| match r.get(2) {
            sparkline::Value::Int64(v) => *v,
            other => panic!("{other:?}"),
        })
        .max()
        .unwrap();
    assert!(result
        .rows
        .iter()
        .all(|r| r.get(2) == &sparkline::Value::Int64(max)));
}

#[test]
fn left_outer_join_pushdown_is_semantically_neutral() {
    let ctx = session(SessionConfig::default());
    let sql = "SELECT * FROM airbnb LEFT OUTER JOIN scores \
               ON airbnb.id = scores.listing_id \
               SKYLINE OF price MIN, accommodates MAX";
    let df = ctx.sql(sql).unwrap();
    // With the rule: the Skyline sits below the join in the plan.
    let explain = df.explain().unwrap();
    let plan_section = explain
        .split("== Optimized Logical Plan ==")
        .nth(1)
        .unwrap();
    let sky_pos = plan_section.find("Skyline").unwrap();
    let join_pos = plan_section.find("Join").unwrap();
    assert!(sky_pos > join_pos, "skyline below join:\n{explain}");
    assert_eq!(
        df.collect().unwrap().sorted_display(),
        collect_unoptimized(&ctx, sql).unwrap().sorted_display()
    );
}

#[test]
fn fk_inner_join_pushdown_is_semantically_neutral() {
    let ctx = session(SessionConfig::default());
    // airbnb.id is declared as an FK into scores.listing_id, so every
    // airbnb row has a partner: the inner join is non-reductive.
    let sql = "SELECT * FROM airbnb JOIN scores ON airbnb.id = scores.listing_id \
               SKYLINE OF price MIN, beds MAX";
    assert_eq!(
        ctx.sql(sql).unwrap().collect().unwrap().sorted_display(),
        collect_unoptimized(&ctx, sql).unwrap().sorted_display()
    );
}

#[test]
fn generic_optimizations_are_semantically_neutral() {
    let ctx = session(SessionConfig::default());
    let sql = "SELECT price, beds FROM airbnb \
               WHERE price < 500 AND 1 < 2 AND beds >= 1 \
               SKYLINE OF price MIN, beds MAX ORDER BY price LIMIT 50";
    assert_eq!(
        ctx.sql(sql).unwrap().collect().unwrap().sorted_display(),
        collect_unoptimized(&ctx, sql).unwrap().sorted_display()
    );
}

#[test]
fn reference_algorithm_explain_shows_anti_join() {
    let ctx = session(SessionConfig::default());
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 3, true);
    let explain = ctx
        .sql(&sql)
        .unwrap()
        .explain_with(Algorithm::Reference)
        .unwrap();
    assert!(explain.contains("LeftAnti"), "{explain}");
    assert!(
        !explain.contains("SkylineExec"),
        "reference plan must not contain skyline operators:\n{explain}"
    );
}

#[test]
fn explain_analyze_is_stable_across_runs() {
    let ctx = session(SessionConfig::default().with_executors(5));
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 3, true);
    let df = ctx.sql(&sql).unwrap();
    // EXPLAIN: the inherited distribution feeds the pairwise merge.
    let explain = df.explain().unwrap();
    assert!(!explain.contains("ExchangeExec"), "{explain}");
    assert!(explain.contains(", pairwise merge"), "{explain}");
    // EXPLAIN ANALYZE renders stably across runs. Scheduler-dependent
    // gauges (wall clock, memory, the in-flight peaks and batch counts)
    // legitimately vary run to run; everything else must match.
    let analyze = df.explain_analyze().unwrap();
    assert!(analyze.contains("dominance tests: "), "{analyze}");
    let stable = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| {
                !l.starts_with("elapsed")
                    && !l.starts_with("peak memory")
                    && !l.starts_with("peak rows in flight")
                    && !l.starts_with("batches emitted")
            })
            .map(str::to_string)
            .collect()
    };
    let again = df.explain_analyze().unwrap();
    assert_eq!(stable(&analyze), stable(&again), "analyze output unstable");
}

#[test]
fn dominance_test_counts_reflect_optimization() {
    // The single-dimension rewrite eliminates dominance tests entirely.
    let ctx = session(SessionConfig::default());
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 1, true);
    let result = ctx.sql(&sql).unwrap().collect().unwrap();
    assert_eq!(result.metrics.dominance_tests, 0, "MinMax scan needs none");
    let sql6 = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 6, true);
    let result6 = ctx.sql(&sql6).unwrap().collect().unwrap();
    assert!(result6.metrics.dominance_tests > 0);
}

#[test]
fn single_dim_rewrite_matches_the_general_path_on_nulls_nan_and_ties() {
    // `x MIN, x MIN` is the same skyline as `x MIN`, but the single-
    // dimension rewrite leaves it alone, so it runs the general path.
    use sparkline::{DataType, Field, Row, Schema, Value};
    let xs = [
        Value::Null,
        Value::Float64(f64::NAN),
        Value::Float64(2.0),
        Value::Float64(f64::NEG_INFINITY),
        Value::Float64(1.0),
        Value::Null,
        Value::Float64(f64::INFINITY),
        Value::Float64(f64::NAN),
        Value::Float64(1.0),
        Value::Float64(f64::NEG_INFINITY),
        Value::Float64(f64::INFINITY),
        Value::Float64(2.0),
    ];
    // Each value twice, with distinct ids, so DISTINCT must choose.
    let rows: Vec<Row> = (0..2)
        .flat_map(|round| {
            xs.iter()
                .cloned()
                .enumerate()
                .map(move |(i, x)| (round, i, x))
        })
        .map(|(round, i, x)| Row::new(vec![Value::Int64(round * 100 + i as i64), x]))
        .collect();
    // The same shapes with no infinity: the optimum is a finite tie.
    let finite: Vec<Row> = rows
        .iter()
        .filter(|r| !matches!(r.get(1), Value::Float64(f) if f.is_infinite()))
        .cloned()
        .collect();
    // First a NaN, then finite values: NaN must not become the optimum.
    let nan_first = vec![
        Row::new(vec![Value::Int64(1), Value::Float64(f64::NAN)]),
        Row::new(vec![Value::Int64(2), Value::Float64(1.0)]),
        Row::new(vec![Value::Int64(3), Value::Float64(2.0)]),
    ];
    let nulls_only = vec![
        Row::new(vec![Value::Int64(1), Value::Null]),
        Row::new(vec![Value::Int64(2), Value::Null]),
        Row::new(vec![Value::Int64(3), Value::Float64(f64::NAN)]),
    ];
    for (name, data) in [
        ("mixed", &rows),
        ("finite", &finite),
        ("nan first", &nan_first),
        ("null-like only", &nulls_only),
    ] {
        // A non-nullable `x` may still hold NaN; the optimizer then infers
        // the complete relation on its own.
        for (nullable, executors) in [true, false]
            .into_iter()
            .flat_map(|n| (1..=4).map(move |e| (n, e)))
        {
            let data: Vec<Row> = data
                .iter()
                .filter(|r| nullable || !r.get(1).is_null())
                .cloned()
                .collect();
            let ctx =
                SessionContext::with_config(SessionConfig::default().with_executors(executors));
            let schema = Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("x", DataType::Float64, nullable),
            ]);
            ctx.register_table("t", schema, data).unwrap();
            for distinct in ["", "DISTINCT "] {
                for complete in ["", "COMPLETE "] {
                    for dir in ["MIN", "MAX"] {
                        let of = format!("SELECT * FROM t SKYLINE OF {distinct}{complete}x {dir}");
                        let rewritten = ctx.sql(&of).unwrap();
                        assert!(rewritten.explain().unwrap().contains("MinMaxFilterExec"));
                        let general = format!("{of}, x {dir}");
                        let plain = ctx.sql(&general).unwrap().explain().unwrap();
                        assert!(!plain.contains("MinMaxFilterExec"), "{plain}");
                        let case =
                            format!("{name}, nullable {nullable}, {executors} executors: {of}");
                        assert_eq!(
                            rewritten.collect().unwrap().sorted_display(),
                            ctx.sql(&general)
                                .unwrap()
                                .collect()
                                .unwrap()
                                .sorted_display(),
                            "{case}"
                        );
                    }
                }
            }
        }
    }
}
