//! Differential suite of the incomplete family's global merge: the
//! pairwise cross-filter over null-bitmap class blocks that
//! `GlobalSkylineExec` runs under the incomplete relation (§5.7,
//! Appendix A).
//!
//! Inputs: the Börzsönyi correlated / independent / anti-correlated matrix
//! × dims {2, 4, 8} × NULL fractions {0.1, 0.3, 0.6}, plus `SKYLINE OF
//! DISTINCT` over NULL-bearing data, `DISTINCT` over a table stored twice
//! (above one executor, the two copies of a row sit in different scan
//! partitions), a Utf8 dimension (every class block in scalar fallback),
//! all-NULL rows with `DISTINCT` duplicates of them, and the Appendix A
//! cycle, whose three classes the scan spreads over partitions. Each runs
//! on executors {1, 2, 3, 8} × streaming / materialized × both
//! `DominanceKernel` values, and must return the **raw rows** of the
//! engine's plan run by hand (`common::flat_incomplete_oracle`: the naive
//! skyline per class of each partition, then the all-pairs pass — same
//! rows, same order), with
//! `deferred_deletions` counting exactly the candidates that plan flags.
//! The oracle itself must equal the naive Definition-3.2 skyline as a
//! sorted row set.
//!
//! The plan runs its local phase on the scan's partitions, with no
//! exchange: the merge gathers only the candidates, and the input is never
//! buffered whole.
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
    Value,
};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_exec::partition::split_evenly;
use sparkline_skyline::{naive_skyline, null_bitmap, DominanceChecker};

const NULL_FRACTIONS: [f64; 3] = [0.1, 0.3, 0.6];
/// The label of the `DISTINCT` case whose duplicates straddle partitions.
const STRADDLING: &str = "distinct, table stored twice";
const EXECUTORS: [usize; 4] = [1, 2, 3, 8];
const KERNELS: [DominanceKernel; 2] = [DominanceKernel::Chunked, DominanceKernel::Auto];

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
    // DISTINCT over a table stored twice, without quantization: the only
    // dims-identical pairs are row i and row i + n, which the scan puts in
    // different partitions at every executor count above one. No local
    // phase sees both, so only the merge's first-occurrence dedup keeps
    // the copy with the lower id.
    let once = generate_with_null_fraction("anti_correlated", 41, 70, 4, 0.3);
    cases.push(Case {
        label: STRADDLING.into(),
        schema: schema(&floats(4), true),
        rows: with_ids(once.iter().chain(&once).cloned().collect()),
        sql: distinct_sql(4),
        checker: all_min(4, true),
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
        assert!(!explain.contains("ExchangeExec"), "{explain}");
        assert!(
            explain.contains("LocalSkylineExec [3 dims, incomplete"),
            "{explain}"
        );
        assert!(
            explain.contains("GlobalSkylineExec [3 dims, incomplete, pairwise merge"),
            "{explain}"
        );
        let result = df.collect().unwrap();
        let m = result.metrics;
        let (expected, candidates) = flat_incomplete_oracle(&case.rows, &case.checker, executors);
        assert_eq!(result.rows, expected, "{executors} executors");
        // One round, one task per non-empty (partition, class) run: each
        // scan partition's local phase emits every class it holds as one
        // window, and a class may span partitions.
        let runs: usize = split_evenly(case.rows.clone(), executors)
            .iter()
            .map(|part| {
                let classes: HashSet<u64> = part
                    .iter()
                    .map(|row| null_bitmap(row, case.checker.spec()))
                    .collect();
                classes.len()
            })
            .sum();
        assert_eq!(m.merge_rounds, 1, "{m:?}");
        assert_eq!(m.merge_tasks as usize, runs, "{m:?}");
        // Nothing moves before the local phase: the merge gathers only
        // the candidates.
        assert_eq!(m.rows_exchanged as usize, candidates, "{m:?}");
        assert!(m.deferred_deletions > 0, "cross-class losers: {m:?}");
        assert_eq!(m.deferred_deletions as usize, candidates - expected.len());
    }
}

#[test]
fn straddling_distinct_duplicates_keep_the_earlier_copy() {
    let case = cases()
        .into_iter()
        .find(|case| case.label == STRADDLING)
        .unwrap();
    let n = case.rows.len() / 2;
    let id = |row: &Row| match row.get(case.schema.len() - 1) {
        Value::Int64(id) => *id as usize,
        other => panic!("id column holds {other:?}"),
    };
    for executors in EXECUTORS {
        // The premise: above one executor, no scan partition holds both
        // copies of a row.
        if executors > 1 {
            for part in split_evenly(case.rows.clone(), executors) {
                let ids: HashSet<usize> = part.iter().map(|row| id(row) % n).collect();
                assert_eq!(ids.len(), part.len(), "{executors} executors");
            }
        }
        let got = run(&case, SessionConfig::default().with_executors(executors));
        assert!(!got.rows.is_empty());
        assert!(
            got.rows.iter().all(|row| id(row) < n),
            "{executors} executors: a later copy survived"
        );
    }
}

#[test]
fn the_incomplete_plan_does_not_buffer_its_input() {
    let dims = 4;
    let rows = generate_with_null_fraction("independent", 43, 20_000, dims, 0.2);
    let input_bytes: usize = rows.iter().map(Row::estimated_bytes).sum();
    let mut config = SessionConfig::default().with_executors(4);
    // Leave out the fixed per-executor charge: only tracked buffers count.
    config.executor_memory_overhead = 0;
    let ctx = SessionContext::with_config(config);
    ctx.register_table(
        "t",
        schema(&vec![DataType::Float64; dims], false),
        rows.clone(),
    )
    .unwrap();
    let result = ctx.sql(&skyline_sql(dims)).unwrap().collect().unwrap();
    let (expected, candidates) = flat_incomplete_oracle(&rows, &all_min(dims, false), 4);
    assert_eq!(result.rows, expected);
    let m = result.metrics;
    assert_eq!(m.rows_exchanged as usize, candidates, "{m:?}");
    assert!(
        result.peak_memory_bytes < input_bytes / 10,
        "peak {} B against {input_bytes} B of input",
        result.peak_memory_bytes
    );
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
