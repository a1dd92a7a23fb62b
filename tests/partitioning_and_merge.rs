//! Acceptance tests for the complete family's plan shape: every executor
//! count (the partitioning of the local phase) must agree on the skyline,
//! and the global phase is the pairwise merge at every executor count — fed the local skylines directly, byte-identical to
//! the paper's flat two-phase plan, whose output is the skyline members
//! in arrival order (`naive_skyline`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_skyline::{naive_skyline, DominanceChecker};

fn anti_correlated(n: usize, dims: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(99);
    anti_correlated_rows(&mut rng, n, dims)
}

fn anti_correlated_session(config: SessionConfig, n: usize, dims: usize) -> SessionContext {
    let ctx = SessionContext::with_config(config);
    ctx.register_table(
        "anti",
        Schema::new(
            (0..dims)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
                .collect(),
        ),
        anti_correlated(n, dims),
    )
    .unwrap();
    ctx
}

const SKYLINE_SQL: &str = "SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN";

#[test]
fn all_partitioning_schemes_agree_on_the_skyline() {
    let expected = anti_correlated_session(SessionConfig::default(), 2_000, 3)
        .sql("SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MIN")
        .unwrap()
        .collect()
        .unwrap()
        .sorted_display();
    for executors in [1usize, 3, 8] {
        let ctx =
            anti_correlated_session(SessionConfig::default().with_executors(executors), 2_000, 3);
        let got = ctx
            .sql("SELECT * FROM anti SKYLINE OF COMPLETE d0 MIN, d1 MIN, d2 MIN")
            .unwrap()
            .collect()
            .unwrap()
            .sorted_display();
        assert_eq!(got, expected, "{executors} executors");
    }
}

#[test]
fn auto_plans_the_pairwise_merge_at_every_executor_count() {
    // At every executor count the complete family's global phase is the
    // one-round pairwise merge, fed the local skylines directly (no
    // gather).
    let rows = anti_correlated(500, 2);
    let checker = DominanceChecker::complete(SkylineSpec::new(vec![
        SkylineDim::min(0),
        SkylineDim::min(1),
    ]));
    for executors in [2usize, 4, 8] {
        let ctx =
            anti_correlated_session(SessionConfig::default().with_executors(executors), 500, 2);
        let df = ctx.sql(SKYLINE_SQL).unwrap();
        let explain = df.explain().unwrap();
        assert!(
            explain.contains("GlobalSkylineExec [2 dims, pairwise merge"),
            "{executors} executors:\n{explain}"
        );
        assert!(!explain.contains("AllTuples"), "{explain}");
        let result = df.collect().unwrap();
        assert_eq!(
            result.rows,
            naive_skyline(&rows, &checker),
            "{executors} executors: same rows in the same order"
        );
        assert_eq!(result.metrics.merge_rounds, 1, "{:?}", result.metrics);
    }
}
