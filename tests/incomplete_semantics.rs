//! Incomplete-data semantics end to end (paper §3, §5.7, Appendix A):
//! cyclic dominance, Lemma 5.1's partitioning, executor-count robustness,
//! and the agreement of complete and incomplete algorithms on complete
//! data — plus Appendix A's deliberately wrong algorithm, which shows what
//! deferred deletion protects against.

mod common;

use common::{incomplete_session, row3};
use sparkline::{Algorithm, Row, SessionConfig, SessionContext};
use sparkline_common::{SkylineDim, SkylineSpec, SkylineType};
use sparkline_datagen::{register_store_sales, skyline_query_for, store_sales, Variant};
use sparkline_skyline::{naive_skyline, Dominance, DominanceChecker};

/// The **incorrect** global-skyline procedure of Gulzar et al. (paper
/// Appendix A).
///
/// It visits the bitmap clusters in order; for the current point `p` it
/// scans all not-yet-deleted points of *subsequent* clusters, deleting any
/// `q` with `p ≺ q` immediately and flagging `p` when `q ≺ p`. Flagged
/// points are deleted at the end of their iteration. Under cyclic dominance
/// this deletes a tuple's only dominating witness before the witness is
/// used, so a dominated tuple can survive — Appendix A's counterexample
/// `a=(1,*,10), b=(3,2,*), c=(*,5,3)` returns `{c}` instead of `{}`.
fn premature_deletion_global_skyline(
    clusters: Vec<Vec<Row>>,
    checker: &DominanceChecker,
) -> Vec<Row> {
    // alive[c][k] tracks whether point k of cluster c is still a candidate.
    let mut alive: Vec<Vec<bool>> = clusters.iter().map(|c| vec![true; c.len()]).collect();
    for ci in 0..clusters.len() {
        for pi in 0..clusters[ci].len() {
            if !alive[ci][pi] {
                continue;
            }
            let mut flagged = false;
            for cj in (ci + 1)..clusters.len() {
                for qj in 0..clusters[cj].len() {
                    if !alive[cj][qj] {
                        continue;
                    }
                    match checker.compare(&clusters[ci][pi], &clusters[cj][qj]) {
                        Dominance::Dominates => alive[cj][qj] = false,
                        Dominance::DominatedBy => flagged = true,
                        _ => {}
                    }
                }
            }
            if flagged {
                alive[ci][pi] = false;
            }
        }
    }
    clusters
        .into_iter()
        .zip(alive)
        .flat_map(|(cluster, flags)| {
            cluster
                .into_iter()
                .zip(flags)
                .filter_map(|(row, keep)| keep.then_some(row))
        })
        .collect()
}

#[test]
fn appendix_a_counterexample_faulty_algorithm_returns_c() {
    // Reproduce Appendix A: the premature-deletion algorithm of [20]
    // wrongly returns {c} on the cycle, while the correct result — what
    // the engine returns (next test) — is {}.
    let checker = DominanceChecker::incomplete(SkylineSpec::new(vec![
        SkylineDim::min(0),
        SkylineDim::min(1),
        SkylineDim::min(2),
    ]));
    let (a, b, c) = (
        row3(Some(1), None, Some(10)),
        row3(Some(3), Some(2), None),
        row3(None, Some(5), Some(3)),
    );
    let wrong =
        premature_deletion_global_skyline(vec![vec![a], vec![b], vec![c.clone()]], &checker);
    assert_eq!(wrong, vec![c], "the faulty algorithm keeps tuple c");
}

#[test]
fn appendix_a_cycle_yields_empty_skyline_at_any_executor_count() {
    let rows = vec![
        row3(Some(1), None, Some(10)),
        row3(Some(3), Some(2), None),
        row3(None, Some(5), Some(3)),
    ];
    let base = incomplete_session(rows);
    for executors in [1usize, 2, 3, 5, 10] {
        let ctx = base.with_shared_catalog(SessionConfig::default().with_executors(executors));
        let result = ctx
            .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(result.num_rows(), 0, "{executors} executors");
    }
}

#[test]
fn engine_matches_naive_incomplete_oracle_on_random_data() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Row> = (0..150)
            .map(|_| {
                row3(
                    rng.gen_bool(0.75).then(|| rng.gen_range(0..8)),
                    rng.gen_bool(0.75).then(|| rng.gen_range(0..8)),
                    rng.gen_bool(0.75).then(|| rng.gen_range(0..8)),
                )
            })
            .collect();
        let spec = SkylineSpec::new(vec![
            SkylineDim::new(0, SkylineType::Min),
            SkylineDim::new(1, SkylineType::Max),
            SkylineDim::new(2, SkylineType::Min),
        ]);
        let checker = DominanceChecker::incomplete(spec);
        let mut oracle: Vec<String> = naive_skyline(&rows, &checker)
            .iter()
            .map(|r| r.to_string())
            .collect();
        oracle.sort();

        let ctx = incomplete_session(rows)
            .with_shared_catalog(SessionConfig::default().with_executors(3));
        let result = ctx
            .sql("SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(result.sorted_display(), oracle, "seed {seed}");
    }
}

#[test]
fn incomplete_algorithm_correct_on_complete_data() {
    // §5.7: "Selecting an algorithm which can handle incomplete datasets
    // yields the correct result also for a complete dataset".
    let ctx = SessionContext::new();
    register_store_sales(&ctx, 1000, 31, Variant::Complete).unwrap();
    let sql = skyline_query_for("store_sales", &store_sales::SKYLINE_DIMS, 5, false);
    let df = ctx.sql(&sql).unwrap();
    let complete = df
        .collect_with_algorithm(Algorithm::DistributedComplete)
        .unwrap();
    let incomplete = df
        .collect_with_algorithm(Algorithm::DistributedIncomplete)
        .unwrap();
    assert_eq!(complete.sorted_display(), incomplete.sorted_display());
}

#[test]
fn incomplete_on_complete_data_merges_one_class_from_every_partition() {
    // No NULLs → one bitmap class. The paper's exchange put that whole
    // class on one executor; the engine's local phase runs on the scan's
    // partitions instead, so the one class yields a local skyline in each
    // of them and the merge cross-filters those blocks.
    let ctx = SessionContext::with_config(SessionConfig::default().with_executors(4));
    register_store_sales(&ctx, 400, 37, Variant::Complete).unwrap();
    let sql = skyline_query_for("store_sales", &store_sales::SKYLINE_DIMS, 3, false);
    let df = ctx.sql(&sql).unwrap();
    let incomplete = df
        .collect_with_algorithm(Algorithm::DistributedIncomplete)
        .unwrap();
    let complete = df
        .collect_with_algorithm(Algorithm::DistributedComplete)
        .unwrap();
    assert_eq!(incomplete.rows, complete.rows);
    // One class over four partitions: one round of four tasks.
    let m = incomplete.metrics;
    assert_eq!(m.merge_rounds, 1, "{m:?}");
    assert_eq!(m.merge_tasks, 4, "{m:?}");
    let explain = ctx
        .with_shared_catalog(SessionConfig::default().with_executors(4))
        .sql(&sql)
        .unwrap()
        .explain_with(Algorithm::DistributedIncomplete)
        .unwrap();
    assert!(!explain.contains("ExchangeExec"), "{explain}");
    assert!(
        explain.contains("GlobalSkylineExec [3 dims, incomplete, pairwise merge"),
        "{explain}"
    );
}

#[test]
fn null_only_tuples_join_the_skyline() {
    // A tuple that is NULL in every skyline dimension is incomparable to
    // everything — it must appear in the skyline.
    let rows = vec![
        row3(Some(1), Some(1), Some(1)),
        row3(None, None, None),
        row3(Some(2), Some(2), Some(2)),
    ];
    let ctx = incomplete_session(rows);
    let result = ctx
        .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
        .unwrap()
        .collect()
        .unwrap();
    // (1,1,1) dominates (2,2,2); the all-NULL row is incomparable.
    assert_eq!(result.num_rows(), 2);
}

#[test]
fn distinct_on_incomplete_data() {
    let rows = vec![
        row3(Some(1), None, Some(5)),
        row3(Some(1), None, Some(5)), // identical incl. NULL pattern
        row3(Some(1), Some(2), Some(5)),
    ];
    let ctx = incomplete_session(rows);
    let with_distinct = ctx
        .sql("SELECT * FROM t SKYLINE OF DISTINCT a MIN, b MIN, c MIN")
        .unwrap()
        .collect()
        .unwrap();
    let without = ctx
        .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(without.num_rows(), with_distinct.num_rows() + 1);
}

#[test]
fn complete_keyword_overrides_detection_and_changes_result_semantics() {
    // Applying the complete algorithm to data that does contain NULLs uses
    // the unrestricted dominance test where NULL comparisons make tuples
    // incomparable — NULL rows survive. This mirrors the paper's note that
    // correctness under COMPLETE "only depends on whether null values
    // actually appear in the data".
    let rows = vec![
        row3(Some(1), Some(1), Some(1)),
        row3(None, Some(0), Some(0)),
    ];
    let ctx = incomplete_session(rows);
    let forced_complete = ctx
        .sql("SELECT * FROM t SKYLINE OF COMPLETE a MIN, b MIN, c MIN")
        .unwrap()
        .collect()
        .unwrap();
    // Under the complete relation the NULL row is incomparable: 2 rows.
    assert_eq!(forced_complete.num_rows(), 2);
    let auto = ctx
        .sql("SELECT * FROM t SKYLINE OF a MIN, b MIN, c MIN")
        .unwrap()
        .collect()
        .unwrap();
    // Under the incomplete relation (*,0,0) dominates (1,1,1)... and
    // (1,1,1) does not dominate back (b,c are worse). Skyline = {(*,0,0)}.
    assert_eq!(auto.num_rows(), 1);
}
