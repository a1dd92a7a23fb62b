//! Property-based tests of the whole engine: for random datasets and
//! random skyline specs, the engine (any algorithm, any executor count)
//! must agree with the naive Definition-3.2 oracle.

use proptest::prelude::*;
use sparkline::{Algorithm, DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{SkylineDim, SkylineSpec, SkylineType};
use sparkline_skyline::{naive_skyline, DominanceChecker};

#[derive(Debug, Clone)]
struct Case {
    rows: Vec<Vec<Option<i64>>>,
    types: Vec<SkylineType>,
    executors: usize,
}

fn case_strategy(allow_null: bool) -> BoxedStrategy<Case> {
    let value = if allow_null {
        prop_oneof![3 => (0i64..7).prop_map(Some), 1 => Just(None)].boxed()
    } else {
        (0i64..7).prop_map(Some).boxed()
    };
    let ty = prop_oneof![
        2 => Just(SkylineType::Min),
        2 => Just(SkylineType::Max),
        1 => Just(SkylineType::Diff),
    ];
    (
        prop::collection::vec(prop::collection::vec(value, 3), 1..60),
        prop::collection::vec(ty, 3),
        1usize..6,
    )
        .prop_map(|(rows, types, executors)| Case {
            rows,
            types,
            executors,
        })
        .boxed()
}

fn run_case(case: &Case, allow_null: bool, algorithm: Algorithm) -> (Vec<String>, Vec<String>) {
    let rows: Vec<Row> = case
        .rows
        .iter()
        .map(|vals| {
            Row::new(
                vals.iter()
                    .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                    .collect(),
            )
        })
        .collect();

    // Oracle.
    let spec = SkylineSpec::new(
        case.types
            .iter()
            .enumerate()
            .map(|(i, &ty)| SkylineDim::new(i, ty))
            .collect(),
    );
    let checker = if allow_null {
        DominanceChecker::incomplete(spec)
    } else {
        DominanceChecker::complete(spec)
    };
    let mut expected: Vec<String> = naive_skyline(&rows, &checker)
        .iter()
        .map(|r| r.to_string())
        .collect();
    expected.sort();

    // Engine.
    let ctx = SessionContext::with_config(SessionConfig::default().with_executors(case.executors));
    ctx.register_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int64, allow_null),
            Field::new("b", DataType::Int64, allow_null),
            Field::new("c", DataType::Int64, allow_null),
        ]),
        rows,
    )
    .unwrap();
    let dims = ["a", "b", "c"]
        .iter()
        .zip(&case.types)
        .map(|(c, ty)| format!("{c} {}", ty.keyword()))
        .collect::<Vec<_>>()
        .join(", ");
    let kw = if allow_null { "" } else { "COMPLETE " };
    let result = ctx
        .sql(&format!("SELECT * FROM t SKYLINE OF {kw}{dims}"))
        .unwrap()
        .collect_with_algorithm(algorithm)
        .unwrap();
    (result.sorted_display(), expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_complete(case in case_strategy(false)) {
        let (got, expected) = run_case(&case, false, Algorithm::Auto);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn engine_matches_oracle_incomplete(case in case_strategy(true)) {
        let (got, expected) = run_case(&case, true, Algorithm::Auto);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn forced_incomplete_algorithm_matches_oracle_on_complete_data(
        case in case_strategy(false)
    ) {
        let (got, expected) =
            run_case(&case, false, Algorithm::DistributedIncomplete);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn non_distributed_matches_oracle(case in case_strategy(false)) {
        let (got, expected) =
            run_case(&case, false, Algorithm::NonDistributedComplete);
        prop_assert_eq!(got, expected);
    }

    /// The reference rewrite agrees with the oracle on complete data
    /// (Listing 4's SQL semantics coincide with Definition 3.1 when no
    /// NULLs occur).
    #[test]
    fn reference_matches_oracle_on_complete_data(case in case_strategy(false)) {
        // The reference rewrite rejects DIFF-only specs (no strict part);
        // ensure at least one ranked dimension.
        prop_assume!(case.types.iter().any(|t| *t != SkylineType::Diff));
        let (got, expected) = run_case(&case, false, Algorithm::Reference);
        prop_assert_eq!(got, expected);
    }
}
