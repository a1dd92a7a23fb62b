//! Property-based tests for the skyline algorithms: the optimized
//! implementations must agree with the naive Definition-3.2 oracle on
//! arbitrary inputs, and the structural invariants of skylines must hold.

use proptest::prelude::*;

use sparkline_common::{QueryControl, Row, SkylineDim, SkylineSpec, SkylineType, Value};
use sparkline_skyline::{
    bnl_skyline, incomplete_global_skyline, incomplete_skyline, naive_skyline, DominanceChecker,
    GroupedBnlBuilder, SkylineStats,
};

/// Small-domain integer values to provoke dominance, equality, and NULLs.
fn value_strategy(allow_null: bool) -> BoxedStrategy<Value> {
    if allow_null {
        prop_oneof![
            3 => (0i64..6).prop_map(Value::Int64),
            1 => Just(Value::Null),
        ]
        .boxed()
    } else {
        (0i64..6).prop_map(Value::Int64).boxed()
    }
}

fn rows_strategy(dims: usize, allow_null: bool, max_rows: usize) -> BoxedStrategy<Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(value_strategy(allow_null), dims).prop_map(Row::new),
        0..max_rows,
    )
    .boxed()
}

fn spec(dims: usize, with_diff: bool, distinct: bool) -> SkylineSpec {
    let mut list = Vec::new();
    for i in 0..dims {
        let ty = if with_diff && i == 0 {
            SkylineType::Diff
        } else if i % 2 == 0 {
            SkylineType::Min
        } else {
            SkylineType::Max
        };
        list.push(SkylineDim::new(i, ty));
    }
    if distinct {
        SkylineSpec::distinct(list)
    } else {
        SkylineSpec::new(list)
    }
}

fn sorted_display(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BNL equals the naive oracle on complete data.
    #[test]
    fn bnl_matches_naive_complete(rows in rows_strategy(3, false, 40)) {
        let checker = DominanceChecker::complete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let bnl = bnl_skyline(rows.clone(), &checker, &mut stats);
        let oracle = naive_skyline(&rows, &checker);
        prop_assert_eq!(sorted_display(&bnl), sorted_display(&oracle));
    }

    /// BNL equals the oracle with a DIFF dimension present.
    #[test]
    fn bnl_matches_naive_with_diff(rows in rows_strategy(3, false, 40)) {
        let checker = DominanceChecker::complete(spec(3, true, false));
        let mut stats = SkylineStats::default();
        let bnl = bnl_skyline(rows.clone(), &checker, &mut stats);
        let oracle = naive_skyline(&rows, &checker);
        prop_assert_eq!(sorted_display(&bnl), sorted_display(&oracle));
    }

    /// DISTINCT keeps exactly one representative per dim-value combination.
    #[test]
    fn bnl_distinct_matches_naive(rows in rows_strategy(2, false, 40)) {
        let checker = DominanceChecker::complete(spec(2, false, true));
        let mut stats = SkylineStats::default();
        let bnl = bnl_skyline(rows.clone(), &checker, &mut stats);
        let oracle = naive_skyline(&rows, &checker);
        // Representative choice is arbitrary; compare dim-value multisets.
        fn key(r: &Row) -> String {
            format!("{}|{}", r.get(0), r.get(1))
        }
        let mut a: Vec<String> = bnl.iter().map(key).collect();
        let mut b: Vec<String> = oracle.iter().map(key).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The incomplete pipeline (bitmap partition + local BNL + flagged
    /// global phase) equals the oracle under the incomplete relation.
    #[test]
    fn incomplete_pipeline_matches_naive(rows in rows_strategy(3, true, 30)) {
        let checker = DominanceChecker::incomplete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let ours = incomplete_skyline(rows.clone(), &checker, &mut stats);
        let oracle = naive_skyline(&rows, &checker);
        prop_assert_eq!(sorted_display(&ours), sorted_display(&oracle));
    }

    /// The all-pairs global phase alone also equals the oracle.
    #[test]
    fn incomplete_global_matches_naive(rows in rows_strategy(3, true, 30)) {
        let checker = DominanceChecker::incomplete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let ours =
            incomplete_global_skyline(rows.clone(), &checker, &mut stats, &QueryControl::unlimited())
                .unwrap();
        let oracle = naive_skyline(&rows, &checker);
        prop_assert_eq!(sorted_display(&ours), sorted_display(&oracle));
    }

    /// Skylines are idempotent: SKY(SKY(R)) = SKY(R).
    #[test]
    fn skyline_idempotent(rows in rows_strategy(3, false, 40)) {
        let checker = DominanceChecker::complete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let once = bnl_skyline(rows, &checker, &mut stats);
        let twice = bnl_skyline(once.clone(), &checker, &mut stats);
        prop_assert_eq!(sorted_display(&once), sorted_display(&twice));
    }

    /// SKY(R ∪ S) ⊆ SKY(R) ∪ SKY(S): local skylines never lose global
    /// skyline members (the basis of the distributed algorithm, §5.6).
    #[test]
    fn union_containment(
        r in rows_strategy(3, false, 25),
        s in rows_strategy(3, false, 25),
    ) {
        let checker = DominanceChecker::complete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let mut union_input = r.clone();
        union_input.extend(s.clone());
        let global = bnl_skyline(union_input, &checker, &mut stats);
        let mut locals = bnl_skyline(r, &checker, &mut stats);
        locals.extend(bnl_skyline(s, &checker, &mut stats));
        let locals_set: std::collections::HashSet<String> =
            locals.iter().map(|x| x.to_string()).collect();
        for row in &global {
            prop_assert!(locals_set.contains(&row.to_string()));
        }
    }

    /// Local-then-global two-phase computation equals the direct skyline,
    /// regardless of how the input is partitioned (Lemma 5.1 analogue for
    /// complete data).
    #[test]
    fn two_phase_equals_direct(
        rows in rows_strategy(3, false, 40),
        cut in 0usize..40,
    ) {
        let checker = DominanceChecker::complete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let direct = bnl_skyline(rows.clone(), &checker, &mut stats);
        let cut = cut.min(rows.len());
        let (p1, p2) = rows.split_at(cut);
        let mut locals = bnl_skyline(p1.to_vec(), &checker, &mut stats);
        locals.extend(bnl_skyline(p2.to_vec(), &checker, &mut stats));
        let two_phase = bnl_skyline(locals, &checker, &mut stats);
        prop_assert_eq!(sorted_display(&direct), sorted_display(&two_phase));
    }

    /// Lemma 5.1 for incomplete data: bitmap-partitioned local skylines
    /// followed by the global phase equal the direct global computation.
    #[test]
    fn lemma_5_1_partitioned_locals_preserve_result(rows in rows_strategy(3, true, 30)) {
        let checker = DominanceChecker::incomplete(spec(3, false, false));
        let mut stats = SkylineStats::default();
        let unlimited = QueryControl::unlimited();
        let direct =
            incomplete_global_skyline(rows.clone(), &checker, &mut stats, &unlimited).unwrap();
        let mut locals = GroupedBnlBuilder::new(checker.clone(), false);
        locals.push_batch(rows);
        let candidates = locals.finish().0;
        let two_phase =
            incomplete_global_skyline(candidates, &checker, &mut stats, &unlimited).unwrap();
        prop_assert_eq!(sorted_display(&direct), sorted_display(&two_phase));
    }

    /// Every skyline member is genuinely undominated and every dropped
    /// tuple has a dominating witness in the *input*.
    #[test]
    fn membership_is_exact(rows in rows_strategy(2, false, 30)) {
        let checker = DominanceChecker::complete(spec(2, false, false));
        let mut stats = SkylineStats::default();
        let sky = bnl_skyline(rows.clone(), &checker, &mut stats);
        let sky_set: std::collections::HashSet<String> =
            sky.iter().map(|r| r.to_string()).collect();
        for row in &rows {
            let dominated = rows.iter().any(|o| checker.dominates(o, row));
            prop_assert_eq!(
                !dominated,
                sky_set.contains(&row.to_string()),
                "row {} dominated={} in_sky={}",
                row,
                dominated,
                sky_set.contains(&row.to_string())
            );
        }
    }

    /// Dominance on complete data is transitive (the property the BNL
    /// window relies on).
    #[test]
    fn complete_dominance_transitive(
        a in prop::collection::vec(0i64..6, 3),
        b in prop::collection::vec(0i64..6, 3),
        c in prop::collection::vec(0i64..6, 3),
    ) {
        let mk = |v: &Vec<i64>| Row::new(v.iter().map(|&x| Value::Int64(x)).collect());
        let checker = DominanceChecker::complete(spec(3, false, false));
        let (ra, rb, rc) = (mk(&a), mk(&b), mk(&c));
        if checker.dominates(&ra, &rb) && checker.dominates(&rb, &rc) {
            prop_assert!(checker.dominates(&ra, &rc));
        }
    }
}
