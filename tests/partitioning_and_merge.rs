//! Acceptance tests for the pluggable partitioning subsystem and the
//! hierarchical global merge: grid pruning must discard provably dominated
//! cells on anti-correlated data (without changing the skyline), and the
//! tree merge must produce byte-identical results to the paper's flat
//! single-executor merge while actually fanning merge work out.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{
    DataType, Field, MergeStrategy, Row, Schema, SessionConfig, SessionContext, SkylinePartitioning,
};
use sparkline_datagen::distributions::anti_correlated_rows;

fn anti_correlated_session(config: SessionConfig, n: usize, dims: usize) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    let mut rng = StdRng::seed_from_u64(99);
    let rows = anti_correlated_rows(&mut rng, n, dims);
    ctx.register_table(
        "anti",
        Schema::new(
            (0..dims)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
                .collect(),
        ),
        rows,
    )
    .unwrap();
    ctx
}

const SKYLINE_SQL: &str = "SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN";

#[test]
fn grid_partitioning_prunes_dominated_cells_on_anti_correlated_data() {
    let standard = anti_correlated_session(SessionConfig::default().with_executors(5), 4_000, 2);
    let grid = anti_correlated_session(
        SessionConfig::default()
            .with_executors(5)
            .with_skyline_partitioning(SkylinePartitioning::Grid),
        4_000,
        2,
    );

    let grid_df = grid.sql(SKYLINE_SQL).unwrap();
    assert!(
        grid_df.explain().unwrap().contains("ExchangeExec [Grid"),
        "{}",
        grid_df.explain().unwrap()
    );
    let grid_result = grid_df.collect().unwrap();
    // The acceptance bar: at least one dominated cell is pruned before the
    // local skyline phase runs, and the pruned rows are accounted for.
    assert!(
        grid_result.metrics.partitions_pruned >= 1,
        "no cell pruned: {:?}",
        grid_result.metrics
    );
    assert!(grid_result.metrics.rows_pruned > 0);
    assert!(grid_result.metrics.corner_tests > 0);

    // Pruning must be invisible in the result.
    let standard_result = standard.sql(SKYLINE_SQL).unwrap().collect().unwrap();
    assert_eq!(
        grid_result.sorted_display(),
        standard_result.sorted_display()
    );
}

#[test]
fn all_partitioning_schemes_agree_on_the_skyline() {
    let expected = anti_correlated_session(SessionConfig::default(), 2_000, 3)
        .sql("SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MIN")
        .unwrap()
        .collect()
        .unwrap()
        .sorted_display();
    for scheme in [
        SkylinePartitioning::Standard,
        SkylinePartitioning::Even,
        SkylinePartitioning::Hash,
        SkylinePartitioning::AngleBased,
        SkylinePartitioning::Grid,
    ] {
        for executors in [1usize, 3, 8] {
            let ctx = anti_correlated_session(
                SessionConfig::default()
                    .with_executors(executors)
                    .with_skyline_partitioning(scheme),
                2_000,
                3,
            );
            let got = ctx
                .sql("SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MIN")
                .unwrap()
                .collect()
                .unwrap()
                .sorted_display();
            assert_eq!(got, expected, "{scheme:?} with {executors} executors");
        }
    }
}

#[test]
fn hierarchical_merge_is_byte_identical_and_parallel() {
    let flat_config = SessionConfig::default()
        .with_executors(8)
        .with_hierarchical_merge_min_partitions(usize::MAX);
    let tree_config = SessionConfig::default()
        .with_executors(8)
        .with_hierarchical_merge_min_partitions(2)
        .with_merge_fan_in(2);

    let flat = anti_correlated_session(flat_config, 3_000, 2)
        .sql(SKYLINE_SQL)
        .unwrap()
        .collect()
        .unwrap();
    // The flat merge is one pairwise round: one task per local skyline.
    assert_eq!(flat.metrics.merge_rounds, 1, "{:?}", flat.metrics);
    assert_eq!(flat.metrics.merge_tasks, 8, "{:?}", flat.metrics);
    assert_eq!(flat.metrics.max_merge_fanout, 8, "{:?}", flat.metrics);
    assert!(flat.metrics.max_window >= flat.rows.len());

    let tree_session = anti_correlated_session(tree_config, 3_000, 2);
    let tree_df = tree_session.sql(SKYLINE_SQL).unwrap();
    assert!(
        tree_df.explain().unwrap().contains("hierarchical fan-in 2"),
        "{}",
        tree_df.explain().unwrap()
    );
    let tree = tree_df.collect().unwrap();

    // Byte-identical: same rows in the same order, not just the same set.
    assert_eq!(tree.rows, flat.rows);
    // And the merge actually fanned out over more than one executor: at
    // least one round ran two or more merge tasks concurrently on the
    // 8-executor pool.
    assert!(tree.metrics.merge_rounds >= 2, "{:?}", tree.metrics);
    assert!(tree.metrics.max_merge_fanout > 1, "{:?}", tree.metrics);
    assert!(tree.metrics.merge_tasks > tree.metrics.merge_rounds);
}

#[test]
fn hierarchical_merge_engages_by_executor_count() {
    // Two executors sit below the default threshold: the one-round
    // pairwise merge, fed the local skylines directly (no gather).
    let small = anti_correlated_session(SessionConfig::default().with_executors(2), 500, 2);
    let explain = small.sql(SKYLINE_SQL).unwrap().explain().unwrap();
    assert!(
        explain.contains("GlobalSkylineExec [2 dims, pairwise merge"),
        "{explain}"
    );
    assert!(!explain.contains("AllTuples"), "{explain}");
    assert!(!explain.contains("hierarchical"), "{explain}");

    // Eight executors: the tree merge replaces the gather entirely.
    let big = anti_correlated_session(SessionConfig::default().with_executors(8), 500, 2);
    let explain = big.sql(SKYLINE_SQL).unwrap().explain().unwrap();
    assert!(explain.contains("hierarchical fan-in"), "{explain}");
    assert!(!explain.contains("AllTuples"), "{explain}");
}

#[test]
fn grid_pruning_respects_nullable_dimensions() {
    // A nullable dimension routes the query down the incomplete path where
    // grid partitioning (and hence pruning) must not engage.
    let ctx = SessionContext::with_config(
        SessionConfig::default()
            .with_executors(5)
            .with_skyline_partitioning(SkylinePartitioning::Grid),
    );
    let rows: Vec<Row> = (0..100)
        .map(|i: i64| {
            Row::new(vec![
                if i % 7 == 0 {
                    sparkline::Value::Null
                } else {
                    sparkline::Value::Int64(i % 10)
                },
                sparkline::Value::Int64((i * 3) % 10),
            ])
        })
        .collect();
    ctx.register_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, false),
        ]),
        rows,
    )
    .unwrap();
    let df = ctx.sql("SELECT * FROM t SKYLINE OF a MIN, b MIN").unwrap();
    let explain = df.explain().unwrap();
    assert!(explain.contains("IncompleteGlobalSkylineExec"), "{explain}");
    assert!(!explain.contains("Grid"), "{explain}");
    let result = df.collect().unwrap();
    assert_eq!(result.metrics.partitions_pruned, 0);
    // The incomplete family now tree-merges its global phase at this
    // executor count (PR 5); only the *grid* machinery must stay out.
    // Pinning the merge flat via the knob restores the paper's plan.
    let flat_ctx = ctx.with_shared_catalog(
        SessionConfig::default()
            .with_executors(5)
            .with_skyline_partitioning(SkylinePartitioning::Grid)
            .with_incomplete_tree_merge(false),
    );
    let flat = flat_ctx
        .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(flat.metrics.merge_rounds, 0);
    assert_eq!(flat.metrics.partitions_pruned, 0);
    assert_eq!(flat.sorted_display(), result.sorted_display());
}

#[test]
fn merge_strategy_is_exposed_in_the_public_api() {
    // The config knobs round-trip (smoke test for the core re-exports).
    let config = SessionConfig::default()
        .with_merge_fan_in(3)
        .with_grid_cells_per_dim(8)
        .with_hierarchical_merge_min_partitions(6);
    assert_eq!(config.merge_fan_in, 3);
    assert_eq!(config.grid_cells_per_dim, 8);
    assert_eq!(config.hierarchical_merge_min_partitions, 6);
    let _ = MergeStrategy::Hierarchical { fan_in: 3 };
}
