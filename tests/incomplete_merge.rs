//! Differential suite of the incomplete family's global merge: the
//! pairwise cross-filter over null-bitmap class blocks that
//! `GlobalSkylineExec` runs under the incomplete relation (§5.7,
//! Appendix A).
//!
//! Inputs: the Börzsönyi correlated / independent / anti-correlated matrix
//! × dims {2, 4, 8} × NULL fractions {0.1, 0.3, 0.6}, plus `SKYLINE OF
//! DISTINCT` over NULL-bearing data, a Utf8 dimension (every class block
//! in scalar fallback), all-NULL rows with `DISTINCT` duplicates of them,
//! and the Appendix A cycle, whose three classes the null-bitmap exchange
//! spreads over partitions. Each runs on executors {1, 2, 3, 8} ×
//! streaming / materialized × the three `DominanceKernel` values, and must
//! return the **raw rows** of the paper's plan run by hand
//! (`common::flat_incomplete_oracle`: same rows, same order), with
//! `deferred_deletions` counting exactly the candidates that plan flags.
//! The oracle itself must equal the naive Definition-3.2 skyline as a
//! sorted row set.
//!
//! A proptest locks down the two directions of correctness separately: no
//! true incomplete-skyline member is ever dropped, and no globally
//! dominated tuple survives.

mod common;

use std::collections::HashSet;

use common::{flat_incomplete_oracle, generate_with_null_fraction, skyline_sql, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    DataType, DominanceKernel, Field, QueryResult, Row, Schema, SessionConfig, SessionContext,
    SkylineStrategy, Value,
};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_skyline::{naive_skyline, null_bitmap, DominanceChecker};

const NULL_FRACTIONS: [f64; 3] = [0.1, 0.3, 0.6];
const EXECUTORS: [usize; 4] = [1, 2, 3, 8];
const KERNELS: [DominanceKernel; 3] = [
    DominanceKernel::Scalar,
    DominanceKernel::Chunked,
    DominanceKernel::Auto,
];

/// One input of the matrix: table `t`, the skyline query over it, and the
/// relation the engine must apply.
struct Case {
    label: String,
    schema: Schema,
    rows: Vec<Row>,
    sql: String,
    checker: DominanceChecker,
}

/// `dims` nullable dimension columns `d0..` of the given types, plus a
/// trailing `id` payload column when `payload` is set — so "which of two
/// dims-identical rows survived" is visible in the raw rows.
fn schema(types: &[DataType], payload: bool) -> Schema {
    let mut fields: Vec<Field> = types
        .iter()
        .enumerate()
        .map(|(i, ty)| Field::new(format!("d{i}"), *ty, true))
        .collect();
    if payload {
        fields.push(Field::new("id", DataType::Int64, false));
    }
    Schema::new(fields)
}

fn with_ids(rows: Vec<Row>) -> Vec<Row> {
    rows.into_iter()
        .enumerate()
        .map(|(id, row)| {
            let mut values = row.values().to_vec();
            values.push(Value::Int64(id as i64));
            Row::new(values)
        })
        .collect()
}

fn all_min(dims: usize, distinct: bool) -> DominanceChecker {
    let dims = (0..dims).map(SkylineDim::min).collect();
    DominanceChecker::incomplete(if distinct {
        SkylineSpec::distinct(dims)
    } else {
        SkylineSpec::new(dims)
    })
}

fn distinct_sql(dims: usize) -> String {
    skyline_sql(dims).replace("SKYLINE OF", "SKYLINE OF DISTINCT")
}

/// Floats quantized to quarters, so dims-identical rows occur.
fn quantized(rows: Vec<Row>) -> Vec<Row> {
    rows.into_iter()
        .map(|row| {
            Row::new(
                row.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float64(f) => Value::Float64((f * 4.0).floor() / 4.0),
                        other => other.clone(),
                    })
                    .collect(),
            )
        })
        .collect()
}

fn cases() -> Vec<Case> {
    let floats = |dims| vec![DataType::Float64; dims];
    let mut cases = Vec::new();
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for null_fraction in NULL_FRACTIONS {
                let n = if dims == 8 { 60 } else { 90 };
                cases.push(Case {
                    label: format!("{dist}/{dims}d/nulls={null_fraction}"),
                    schema: schema(&floats(dims), false),
                    rows: generate_with_null_fraction(dist, 17, n, dims, null_fraction),
                    sql: skyline_sql(dims),
                    checker: all_min(dims, false),
                });
            }
        }
    }
    // DISTINCT over NULL-bearing data, every row twice.
    let base = quantized(generate_with_null_fraction("independent", 29, 80, 3, 0.3));
    cases.push(Case {
        label: "distinct".into(),
        schema: schema(&floats(3), true),
        rows: with_ids(base.iter().chain(&base).cloned().collect()),
        sql: distinct_sql(3),
        checker: all_min(3, true),
    });
    // A Utf8 dimension: the kernel cannot encode it, so every class block
    // falls back to the scalar checker.
    let utf8: Vec<Row> = generate_with_null_fraction("anti_correlated", 31, 90, 3, 0.3)
        .into_iter()
        .map(|row| {
            let mut values = row.values().to_vec();
            if let Value::Float64(f) = values[0] {
                values[0] = Value::str(format!("{:04}", (f * 1000.0) as i64));
            }
            Row::new(values)
        })
        .collect();
    cases.push(Case {
        label: "utf8".into(),
        schema: schema(
            &[DataType::Utf8, DataType::Float64, DataType::Float64],
            false,
        ),
        rows: utf8,
        sql: skyline_sql(3),
        checker: all_min(3, false),
    });
    // All-NULL rows are incomparable with everything; under DISTINCT only
    // the first of them survives.
    let all_null = Row::new(vec![Value::Null; 3]);
    let mut with_all_null = generate_with_null_fraction("correlated", 37, 60, 3, 0.3);
    for at in [0, 17, 33, 60] {
        with_all_null.insert(at, all_null.clone());
    }
    for distinct in [false, true] {
        cases.push(Case {
            label: format!("all-null distinct={distinct}"),
            schema: schema(&floats(3), true),
            rows: with_ids(with_all_null.clone()),
            sql: if distinct {
                distinct_sql(3)
            } else {
                skyline_sql(3)
            },
            checker: all_min(3, distinct),
        });
    }
    // The Appendix A cycle a ≺ b ≺ c ≺ a: the skyline is empty.
    let cell = |v: Option<i64>| v.map(Value::Int64).unwrap_or(Value::Null);
    let cycle = [
        [Some(1), None, Some(10)],
        [Some(3), Some(2), None],
        [None, Some(5), Some(3)],
    ];
    cases.push(Case {
        label: "appendix-a cycle".into(),
        schema: schema(&[DataType::Int64; 3], false),
        rows: cycle
            .iter()
            .map(|r| Row::new(r.iter().copied().map(cell).collect()))
            .collect(),
        sql: skyline_sql(3),
        checker: all_min(3, false),
    });
    cases
}

fn run(case: &Case, config: SessionConfig) -> QueryResult {
    let ctx = SessionContext::with_config(config);
    ctx.register_table("t", case.schema.clone(), case.rows.clone())
        .unwrap();
    ctx.sql(&case.sql).unwrap().collect().unwrap()
}

fn sorted(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(Row::to_string).collect();
    v.sort();
    v
}

#[test]
fn engine_rows_equal_the_flat_oracle_across_the_matrix() {
    for case in cases() {
        let naive = sorted(&naive_skyline(&case.rows, &case.checker));
        for executors in EXECUTORS {
            let (expected, candidates) =
                flat_incomplete_oracle(&case.rows, &case.checker, executors);
            let cell = format!("{} on {executors} executors", case.label);
            assert_eq!(sorted(&expected), naive, "{cell}: the two oracles disagree");
            for kernel in KERNELS {
                for streaming in [true, false] {
                    let got = run(
                        &case,
                        SessionConfig::default()
                            .with_executors(executors)
                            .with_dominance_kernel(kernel)
                            .with_streaming_execution(streaming),
                    );
                    let label = format!("{cell}, {kernel:?}, streaming={streaming}");
                    assert_eq!(got.rows, expected, "{label}");
                    assert_eq!(
                        got.metrics.deferred_deletions as usize,
                        candidates - expected.len(),
                        "{label}: deferred deletions"
                    );
                }
            }
        }
    }
}

#[test]
fn the_merge_is_one_round_over_the_class_blocks() {
    let case = Case {
        label: "anti_correlated/3d/nulls=0.3".into(),
        schema: schema(&[DataType::Float64; 3], false),
        rows: generate_with_null_fraction("anti_correlated", 5, 400, 3, 0.3),
        sql: skyline_sql(3),
        checker: all_min(3, false),
    };
    for executors in [1usize, 2, 8] {
        let ctx = SessionContext::with_config(SessionConfig::default().with_executors(executors));
        ctx.register_table("t", case.schema.clone(), case.rows.clone())
            .unwrap();
        let df = ctx.sql(&case.sql).unwrap();
        let explain = df.explain().unwrap();
        assert!(explain.contains("ExchangeExec [NullBitmap"), "{explain}");
        assert!(
            explain.contains("LocalSkylineExec [3 dims, incomplete"),
            "{explain}"
        );
        assert!(
            explain.contains("GlobalSkylineExec [3 dims, incomplete, pairwise merge"),
            "{explain}"
        );
        assert!(!explain.contains("AllTuples"), "{explain}");
        let result = df.collect().unwrap();
        let m = result.metrics;
        let (expected, candidates) = flat_incomplete_oracle(&case.rows, &case.checker, executors);
        assert_eq!(result.rows, expected, "{executors} executors");
        // One round, one task per bitmap class: each class lives in one
        // partition, whose local phase emits it as one window.
        let classes: HashSet<u64> = case
            .rows
            .iter()
            .map(|row| null_bitmap(row, case.checker.spec()))
            .collect();
        assert_eq!(m.merge_rounds, 1, "{m:?}");
        assert_eq!(m.merge_tasks as usize, classes.len(), "{m:?}");
        // The exchange moves every row, the merge gathers the candidates.
        assert_eq!(
            m.rows_exchanged as usize,
            case.rows.len() + candidates,
            "{m:?}"
        );
        assert!(m.deferred_deletions > 0, "cross-class losers: {m:?}");
        assert_eq!(m.deferred_deletions as usize, candidates - expected.len());
    }
}

#[test]
fn adaptive_strategy_plans_the_static_incomplete_merge() {
    // The adaptive planner samples only for the complete family: on
    // NULL-bearing data it plans exactly what `Auto` plans, and reads no
    // sample.
    let case = Case {
        label: "independent/3d/nulls=0.3".into(),
        schema: schema(&[DataType::Float64; 3], false),
        rows: generate_with_null_fraction("independent", 11, 300, 3, 0.3),
        sql: skyline_sql(3),
        checker: all_min(3, false),
    };
    let session = |strategy| {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(8)
                .with_skyline_strategy(strategy),
        );
        ctx.register_table("t", case.schema.clone(), case.rows.clone())
            .unwrap();
        ctx
    };
    let adaptive = session(SkylineStrategy::Adaptive);
    let explain = adaptive.sql(&case.sql).unwrap().explain().unwrap();
    let auto = session(SkylineStrategy::Auto);
    assert_eq!(
        explain,
        auto.sql(&case.sql).unwrap().explain().unwrap(),
        "{}",
        case.label
    );
    let result = adaptive.sql(&case.sql).unwrap().collect().unwrap();
    assert_eq!(
        result.rows,
        flat_incomplete_oracle(&case.rows, &case.checker, 8).0
    );
    assert_eq!(result.metrics.sample_rows, 0, "{:?}", result.metrics);
    assert_eq!(result.metrics.merge_rounds, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two-sided correctness of the merge on random NULL-bearing data:
    /// (a) completeness — no true incomplete-skyline member is ever
    /// dropped; (b) soundness — no globally dominated tuple survives.
    /// Together with the multiplicity check this is exact multiset
    /// equality with the naive oracle, for every executor count.
    #[test]
    fn no_member_dropped_and_no_dominated_survivor(
        rows in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![3 => (0i64..6).prop_map(Some), 1 => Just(None)],
                3,
            ),
            1..70,
        ),
        executors in 1usize..9,
    ) {
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
        let expected = sorted(&naive_skyline(&table, &all_min(3, false)));
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(executors)
                .with_batch_size(16),
        );
        ctx.register_table("t", schema(&[DataType::Int64; 3], false), table)
            .unwrap();
        let got = ctx
            .sql(&skyline_sql(3))
            .unwrap()
            .collect()
            .unwrap()
            .sorted_display();
        for member in &expected {
            prop_assert!(
                got.contains(member),
                "true skyline member dropped: {member} (executors={executors})"
            );
        }
        for survivor in &got {
            prop_assert!(
                expected.contains(survivor),
                "dominated tuple survived: {survivor} (executors={executors})"
            );
        }
        prop_assert_eq!(got, expected, "multiset equality");
    }
}
