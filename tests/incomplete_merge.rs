//! Differential harness for the incomplete-data hierarchical global merge
//! (PR 5), in the PR 4 style: over the Börzsönyi correlated / independent
//! / anti-correlated matrix × dims {2, 4, 8} × NULL fractions {0.1, 0.3,
//! 0.6} × partition counts {1, 3, 8} × streaming / materialized execution,
//! the bitmap-class-aware tree merge must equal the paper's flat
//! single-executor all-pairs pass **byte-for-byte** (same rows, same
//! order — the deferred-deletion merge's identity theorem, see
//! `sparkline_skyline::incomplete`), and both must equal the naive
//! Definition-3.2 incomplete oracle as sorted row sets.
//!
//! A proptest locks down the two directions of correctness separately: no
//! true incomplete-skyline member is ever dropped, and no globally
//! dominated tuple survives the deferred-deletion replay.

mod common;

use common::{generate_with_null_fraction, oracle, skyline_sql, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    DataType, Field, Row, Schema, SessionConfig, SessionContext, SkylineStrategy, Value,
};
use sparkline_common::{DominanceKernel, SkylineDim, SkylineSpec};
use sparkline_skyline::{naive_skyline, DominanceChecker};

const NULL_FRACTIONS: [f64; 3] = [0.1, 0.3, 0.6];
const PARTITIONS: [usize; 3] = [1, 3, 8];

fn session(rows: Vec<Row>, dims: usize, config: SessionConfig) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    ctx.register_table(
        "t",
        Schema::new(
            (0..dims)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, true))
                .collect(),
        ),
        rows,
    )
    .unwrap();
    ctx
}

/// Flat (paper) plan: the knob pins the incomplete global phase to the
/// single-executor all-pairs pass.
fn flat_config(executors: usize, streaming: bool) -> SessionConfig {
    SessionConfig::default()
        .with_executors(executors)
        .with_incomplete_tree_merge(false)
        .with_streaming_execution(streaming)
}

/// Tree plan: the hierarchical merge engages at any executor count.
fn tree_config(executors: usize, streaming: bool) -> SessionConfig {
    SessionConfig::default()
        .with_executors(executors)
        .with_hierarchical_merge_min_partitions(1)
        .with_merge_fan_in(2)
        .with_streaming_execution(streaming)
}

#[test]
fn tree_merge_equals_flat_merge_and_oracle_across_the_matrix() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for null_fraction in NULL_FRACTIONS {
                let n = if dims == 8 { 60 } else { 90 };
                let rows = generate_with_null_fraction(dist, 17, n, dims, null_fraction);
                let expected = oracle(&rows, dims, true);
                let sql = skyline_sql(dims);
                for parts in PARTITIONS {
                    for streaming in [true, false] {
                        let label = format!(
                            "{dist}/{dims}d/nulls={null_fraction}/parts={parts}/stream={streaming}"
                        );
                        let flat = session(rows.clone(), dims, flat_config(parts, streaming))
                            .sql(&sql)
                            .unwrap()
                            .collect()
                            .unwrap();
                        let tree = session(rows.clone(), dims, tree_config(parts, streaming))
                            .sql(&sql)
                            .unwrap()
                            .collect()
                            .unwrap();
                        // Byte identity: same rows in the same raw order,
                        // not just as sets.
                        assert_eq!(tree.rows, flat.rows, "{label}");
                        assert_eq!(tree.sorted_display(), expected, "{label} vs oracle");
                        // The deferred-deletion sets agree: flat and tree
                        // flag exactly the same tuples.
                        assert_eq!(
                            tree.metrics.deferred_deletions, flat.metrics.deferred_deletions,
                            "{label} deferred sets"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scalar_and_vectorized_tree_merges_agree() {
    // The per-class columnar path of the merge must be byte-identical to
    // the scalar flag loop (including its fallbacks).
    for dist in DISTRIBUTIONS {
        let rows = generate_with_null_fraction(dist, 23, 120, 3, 0.3);
        let expected = oracle(&rows, 3, true);
        let sql = skyline_sql(3);
        let run = |kernel: DominanceKernel| {
            session(
                rows.clone(),
                3,
                tree_config(5, true).with_dominance_kernel(kernel),
            )
            .sql(&sql)
            .unwrap()
            .collect()
            .unwrap()
        };
        let scalar = run(DominanceKernel::Scalar);
        let vectorized = run(DominanceKernel::Auto);
        assert_eq!(scalar.rows, vectorized.rows, "{dist}");
        assert_eq!(scalar.sorted_display(), expected, "{dist}");
        assert_eq!(
            scalar.metrics.deferred_deletions,
            vectorized.metrics.deferred_deletions
        );
    }
}

#[test]
fn tree_merge_parallelizes_and_reports_its_metrics() {
    let rows = generate_with_null_fraction("anti_correlated", 5, 400, 3, 0.3);
    let sql = skyline_sql(3);
    let tree = session(rows.clone(), 3, tree_config(8, true))
        .sql(&sql)
        .unwrap()
        .collect()
        .unwrap();
    let flat = session(rows, 3, flat_config(8, true))
        .sql(&sql)
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(tree.rows, flat.rows);
    let m = &tree.metrics;
    assert!(m.merge_rounds >= 1, "tree rounds ran: {m:?}");
    assert!(m.max_merge_fanout >= 1, "{m:?}");
    assert!(
        m.classes_merged > 1,
        "NULL-bearing data spreads over several bitmap classes: {m:?}"
    );
    assert!(
        m.deferred_deletions > 0,
        "cross-class losers flagged: {m:?}"
    );
    assert_eq!(m.deferred_deletions, flat.metrics.deferred_deletions);
    assert_eq!(flat.metrics.merge_rounds, 0, "flat plan has no tree rounds");
    assert_eq!(flat.metrics.classes_merged, 0, "flat plan reports no merge");
}

#[test]
fn adaptive_strategy_tree_merges_null_bearing_data() {
    // End-to-end: the adaptive planner (satellite fix) reads the sampled
    // NULL fractions and selects the tree merge for the incomplete family
    // once the pool is large enough — results unchanged.
    let rows = generate_with_null_fraction("independent", 11, 300, 3, 0.3);
    let expected = oracle(&rows, 3, true);
    let sql = skyline_sql(3);
    let adaptive = session(
        rows.clone(),
        3,
        SessionConfig::default()
            .with_executors(8)
            .with_skyline_strategy(SkylineStrategy::Adaptive),
    );
    let explain = adaptive.sql(&sql).unwrap().explain().unwrap();
    assert!(
        explain.contains("hierarchical fan-in"),
        "adaptive picks the tree on NULL-bearing data:\n{explain}"
    );
    let result = adaptive.sql(&sql).unwrap().collect().unwrap();
    assert_eq!(result.sorted_display(), expected);
    assert!(result.metrics.merge_rounds >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two-sided correctness of the deferred-deletion replay on random
    /// NULL-bearing data: (a) completeness — no true incomplete-skyline
    /// member is ever dropped by the tree merge; (b) soundness — no
    /// globally dominated tuple survives the replay. Together with the
    /// multiplicity check this is exact multiset equality with the naive
    /// oracle, for every partitioning of the input.
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
        fan_in in 2usize..5,
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
        let spec = SkylineSpec::new((0..3).map(SkylineDim::min).collect());
        let checker = DominanceChecker::incomplete(spec);
        let mut expected: Vec<String> = naive_skyline(&table, &checker)
            .iter()
            .map(|r| r.to_string())
            .collect();
        expected.sort();
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(executors)
                .with_hierarchical_merge_min_partitions(1)
                .with_merge_fan_in(fan_in)
                .with_batch_size(16),
        );
        ctx.register_table(
            "t",
            Schema::new(
                (0..3)
                    .map(|i| Field::new(format!("d{i}"), DataType::Int64, true))
                    .collect(),
            ),
            table,
        )
        .unwrap();
        let got = ctx
            .sql("SELECT * FROM t SKYLINE OF d0 MIN, d1 MIN, d2 MIN")
            .unwrap()
            .collect()
            .unwrap()
            .sorted_display();
        for member in &expected {
            prop_assert!(
                got.contains(member),
                "true skyline member dropped: {member} (executors={executors}, fan_in={fan_in})"
            );
        }
        for survivor in &got {
            prop_assert!(
                expected.contains(survivor),
                "dominated tuple survived the replay: {survivor} \
                 (executors={executors}, fan_in={fan_in})"
            );
        }
        prop_assert_eq!(got, expected, "multiset equality");
    }
}
