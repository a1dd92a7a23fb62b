//! Naive O(n²) skyline oracle, straight from Definition 3.2:
//! `SKY(R) = { r ∈ R | ¬∃ s ∈ R : s ≺ r }`.
//!
//! Used as ground truth by unit, integration, and property-based tests.
//! It is deliberately unoptimized and handles both dominance relations
//! (complete and incomplete) because it never deletes anything during the
//! scan — each membership test quantifies over the *entire* input.

use std::collections::HashSet;

use sparkline_common::{Row, Value};

use crate::dominance::{Dominance, DominanceChecker};

/// Compute the skyline by testing every tuple against every other tuple.
///
/// The members come back in input order. With `checker.distinct()`, one
/// representative is kept per distinct combination of skyline-dimension
/// values (the first in input order), matching `SKYLINE OF DISTINCT` — as
/// in the engine, only for rows the relation finds `Equal` to themselves:
/// a row with a NULL-like dimension under the complete relation is
/// incomparable with every row, itself included, and is never
/// deduplicated.
pub fn naive_skyline(rows: &[Row], checker: &DominanceChecker) -> Vec<Row> {
    let mut result: Vec<Row> = Vec::new();
    let mut seen_dims: HashSet<Vec<Value>> = HashSet::new();
    for (i, candidate) in rows.iter().enumerate() {
        let dominated = rows
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && checker.dominates(other, candidate));
        if dominated {
            continue;
        }
        if checker.distinct()
            && checker.compare(candidate, candidate) == Dominance::Equal
            && !seen_dims.insert(checker.dim_values(candidate))
        {
            continue;
        }
        result.push(candidate.clone());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{SkylineDim, SkylineSpec};

    fn row(vals: &[Option<i64>]) -> Row {
        Row::new(
            vals.iter()
                .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                .collect(),
        )
    }

    #[test]
    fn matches_definition_on_simple_input() {
        let checker = DominanceChecker::complete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
        ]));
        let rows = vec![
            row(&[Some(1), Some(3)]),
            row(&[Some(2), Some(2)]),
            row(&[Some(3), Some(1)]),
            row(&[Some(3), Some(3)]), // dominated by (2,2)
        ];
        let sky = naive_skyline(&rows, &checker);
        assert_eq!(sky.len(), 3);
    }

    #[test]
    fn identical_tuples_do_not_dominate_each_other() {
        let checker = DominanceChecker::complete(SkylineSpec::new(vec![SkylineDim::min(0)]));
        let rows = vec![row(&[Some(1)]), row(&[Some(1)])];
        assert_eq!(naive_skyline(&rows, &checker).len(), 2);
    }

    #[test]
    fn distinct_keeps_first_representative() {
        let checker = DominanceChecker::complete(SkylineSpec::distinct(vec![SkylineDim::min(0)]));
        let r1 = Row::new(vec![Value::Int64(1), Value::str("keep")]);
        let r2 = Row::new(vec![Value::Int64(1), Value::str("drop")]);
        let sky = naive_skyline(&[r1.clone(), r2], &checker);
        assert_eq!(sky, vec![r1]);
        // Under the complete relation a NULL-bearing row is not `Equal` to
        // itself, so DISTINCT keeps every copy, as the engine does.
        let checker = DominanceChecker::complete(SkylineSpec::distinct(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
        ]));
        let rows = vec![
            Row::new(vec![Value::Null, Value::Int64(1), Value::str("a")]),
            Row::new(vec![Value::Null, Value::Int64(1), Value::str("b")]),
            Row::new(vec![Value::Int64(5), Value::Int64(5), Value::str("c")]),
        ];
        assert_eq!(naive_skyline(&rows, &checker), rows);
    }

    #[test]
    fn incomplete_cycle_is_empty() {
        let checker = DominanceChecker::incomplete(SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::min(2),
        ]));
        let rows = vec![
            row(&[Some(1), None, Some(10)]),
            row(&[Some(3), Some(2), None]),
            row(&[None, Some(5), Some(3)]),
        ];
        assert!(naive_skyline(&rows, &checker).is_empty());
    }
}
