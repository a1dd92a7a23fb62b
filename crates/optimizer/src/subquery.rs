//! Rewrite `[NOT] EXISTS` subqueries into left semi / left anti joins.
//!
//! The paper's *reference* algorithm executes the plain-SQL skyline rewrite
//! of Listing 4, whose core is a correlated `NOT EXISTS`. Spark's optimizer
//! performs the same `RewritePredicateSubquery` transformation; here it
//! turns
//!
//! ```text
//! Filter(... AND NOT EXISTS(SELECT * FROM inner WHERE <correlated>))
//! ```
//!
//! into `LeftAntiJoin(outer, inner, on: <correlated'>)`, with outer
//! references mapped onto the join's left side. The resulting nested-loop
//! anti join is what gives the reference algorithm its characteristic
//! quadratic cost profile in the evaluation (§6).

use std::sync::Arc;

use sparkline_common::{Error, Result};
use sparkline_plan::{
    conjoin, split_conjuncts, BoundColumn, Expr, JoinCondition, JoinType, LogicalPlan,
};

/// Rewrite all `[NOT] EXISTS` predicates in the plan into semi/anti joins.
pub fn rewrite_exists_subqueries(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Filter { predicate, input } = &node else {
            return Ok(node);
        };
        if !contains_exists(predicate) {
            return Ok(node);
        }
        let left_len = input.schema()?.len();
        let mut current: LogicalPlan = input.as_ref().clone();
        let mut residual: Vec<Expr> = Vec::new();
        for conjunct in split_conjuncts(predicate) {
            match conjunct {
                Expr::Exists { subquery, negated } => {
                    // Recursively rewrite EXISTS nested inside the subquery.
                    let subplan = rewrite_exists_subqueries(&subquery)?;
                    let (right, correlated) = decorrelate(&subplan)?;
                    let join_type = if negated {
                        JoinType::LeftAnti
                    } else {
                        JoinType::LeftSemi
                    };
                    let condition = match conjoin(
                        correlated
                            .into_iter()
                            .map(|c| remap_correlated(c, left_len))
                            .collect::<Result<Vec<_>>>()?,
                    ) {
                        Some(p) => JoinCondition::On(p),
                        // Uncorrelated EXISTS: the join condition is TRUE —
                        // existence depends only on the right side being
                        // non-empty.
                        None => JoinCondition::On(Expr::lit(true)),
                    };
                    current = LogicalPlan::Join {
                        left: Arc::new(current),
                        right: Arc::new(right),
                        join_type,
                        condition,
                    };
                }
                other => {
                    if contains_exists(&other) {
                        return Err(Error::plan(format!(
                            "EXISTS must appear as a top-level conjunct of a filter \
                             (found inside '{other}')"
                        )));
                    }
                    residual.push(other);
                }
            }
        }
        Ok(match conjoin(residual) {
            Some(p) => LogicalPlan::Filter {
                predicate: p,
                input: Arc::new(current),
            },
            None => current,
        })
    })
}

fn contains_exists(e: &Expr) -> bool {
    match e {
        Expr::Exists { .. } => true,
        other => other.children().iter().any(|c| contains_exists(c)),
    }
}

fn contains_outer_ref_expr(e: &Expr) -> bool {
    match e {
        Expr::OuterColumn(_) => true,
        other => other.children().iter().any(|c| contains_outer_ref_expr(c)),
    }
}

fn plan_has_outer_refs(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit_expressions(&mut |e| {
        if matches!(e, Expr::OuterColumn(_)) {
            found = true;
        }
    });
    found
}

/// Strip the subquery down to the relation the join probes, extracting the
/// correlated conjuncts.
///
/// Supported shape: any stack of `Projection` / `SubqueryAlias` / `Sort` /
/// `Distinct` / `Limit(n≥1)` nodes (none of which affect row existence)
/// over `Filter`s whose correlated conjuncts are collected, over an
/// arbitrary *uncorrelated* plan. Correlation anywhere else is rejected —
/// the same restriction Spark places on predicate subqueries.
fn decorrelate(plan: &LogicalPlan) -> Result<(LogicalPlan, Vec<Expr>)> {
    match plan {
        LogicalPlan::Projection { exprs, input } => {
            if exprs.iter().any(contains_outer_ref_expr) {
                return Err(Error::plan(
                    "correlated column in subquery projection is not supported",
                ));
            }
            decorrelate(input)
        }
        LogicalPlan::SubqueryAlias { input, .. } | LogicalPlan::Distinct { input } => {
            decorrelate(input)
        }
        LogicalPlan::Sort { exprs, input } => {
            if exprs.iter().any(|s| contains_outer_ref_expr(&s.expr)) {
                return Err(Error::plan(
                    "correlated column in subquery ORDER BY is not supported",
                ));
            }
            decorrelate(input)
        }
        LogicalPlan::Limit { n, input } => {
            if *n == 0 {
                return Err(Error::plan("EXISTS over LIMIT 0 is degenerate"));
            }
            decorrelate(input)
        }
        LogicalPlan::Filter { .. } => decorrelate_filter_chain(plan),
        other => {
            if plan_has_outer_refs(other) {
                return Err(Error::plan(
                    "correlated reference below a join/aggregate in an EXISTS \
                     subquery is not supported",
                ));
            }
            Ok((other.clone(), vec![]))
        }
    }
}

/// Collect correlated conjuncts from a chain of `Filter` nodes. In
/// contrast to [`decorrelate`], nothing below the chain may be peeled:
/// the correlated conjuncts were resolved against the filters' input
/// schema, so the plan underneath (projections included!) must be
/// preserved exactly as the join's probe side.
fn decorrelate_filter_chain(plan: &LogicalPlan) -> Result<(LogicalPlan, Vec<Expr>)> {
    match plan {
        LogicalPlan::Filter { predicate, input } => {
            let (inner, mut correlated) = decorrelate_filter_chain(input)?;
            let mut plain = Vec::new();
            for c in split_conjuncts(predicate) {
                if contains_outer_ref_expr(&c) {
                    correlated.push(c);
                } else {
                    plain.push(c);
                }
            }
            let result = match conjoin(plain) {
                Some(p) => LogicalPlan::Filter {
                    predicate: p,
                    input: Arc::new(inner),
                },
                None => inner,
            };
            Ok((result, correlated))
        }
        other => {
            if plan_has_outer_refs(other) {
                return Err(Error::plan(
                    "correlated reference below a join/aggregate in an EXISTS \
                     subquery is not supported",
                ));
            }
            Ok((other.clone(), vec![]))
        }
    }
}

/// Map a correlated conjunct into the join's combined row space: outer
/// references become left-side columns, inner references shift right.
fn remap_correlated(e: Expr, left_len: usize) -> Result<Expr> {
    e.transform_up(&mut |node| {
        Ok(match node {
            Expr::OuterColumn(c) => Expr::BoundColumn(c),
            Expr::BoundColumn(c) => Expr::BoundColumn(BoundColumn {
                index: c.index + left_len,
                field: c.field,
            }),
            other => other,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema};

    fn scan(q: &str) -> LogicalPlan {
        LogicalPlan::TableScan {
            name: "t".into(),
            schema: Schema::new(vec![
                Field::qualified(q, "a", DataType::Int64, false),
                Field::qualified(q, "b", DataType::Int64, false),
            ])
            .into_ref(),
        }
    }

    fn outer_col(i: usize) -> Expr {
        Expr::OuterColumn(BoundColumn {
            index: i,
            field: Field::qualified("o", "a", DataType::Int64, false),
        })
    }

    fn inner_col(i: usize) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: Field::qualified("i", "a", DataType::Int64, false),
        })
    }

    fn exists_filter(negated: bool) -> LogicalPlan {
        // Filter(NOT EXISTS(SELECT * FROM t i WHERE i.a <= o.a), t o)
        let subquery = LogicalPlan::Projection {
            exprs: vec![inner_col(0), inner_col(1)],
            input: Arc::new(LogicalPlan::Filter {
                predicate: inner_col(0).lt_eq(outer_col(0)),
                input: Arc::new(scan("i")),
            }),
        };
        LogicalPlan::Filter {
            predicate: Expr::Exists {
                subquery: Arc::new(subquery),
                negated,
            },
            input: Arc::new(scan("o")),
        }
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let plan = rewrite_exists_subqueries(&exists_filter(true)).unwrap();
        match &plan {
            LogicalPlan::Join {
                join_type,
                condition,
                ..
            } => {
                assert_eq!(*join_type, JoinType::LeftAnti);
                match condition {
                    JoinCondition::On(e) => {
                        // o.a is left index 0; i.a shifts to 2 (left width 2).
                        assert_eq!(e.to_string(), "(i.a#2 <= o.a#0)");
                    }
                    other => panic!("expected On condition, got {other:?}"),
                }
            }
            other => panic!("expected anti join, got:\n{other}"),
        }
    }

    #[test]
    fn exists_becomes_semi_join() {
        let plan = rewrite_exists_subqueries(&exists_filter(false)).unwrap();
        assert!(matches!(
            plan,
            LogicalPlan::Join {
                join_type: JoinType::LeftSemi,
                ..
            }
        ));
    }

    #[test]
    fn uncorrelated_conjuncts_stay_in_subquery() {
        let subquery = LogicalPlan::Filter {
            predicate: inner_col(1)
                .gt(Expr::lit(0i64))
                .and(inner_col(0).lt_eq(outer_col(0))),
            input: Arc::new(scan("i")),
        };
        let plan = LogicalPlan::Filter {
            predicate: Expr::Exists {
                subquery: Arc::new(subquery),
                negated: true,
            },
            input: Arc::new(scan("o")),
        };
        let rewritten = rewrite_exists_subqueries(&plan).unwrap();
        let d = rewritten.display_indent();
        assert!(d.contains("Join [LeftAnti"), "{d}");
        // The uncorrelated filter survives on the right side.
        assert!(d.contains("Filter [(i.a#1 > 0)]"), "{d}");
    }

    #[test]
    fn residual_predicates_remain_as_filter() {
        let plan = LogicalPlan::Filter {
            predicate: inner_col(0).gt(Expr::lit(7i64)).and(Expr::Exists {
                subquery: Arc::new(scan("i")),
                negated: true,
            }),
            input: Arc::new(scan("o")),
        };
        let rewritten = rewrite_exists_subqueries(&plan).unwrap();
        match &rewritten {
            LogicalPlan::Filter { predicate, input } => {
                assert_eq!(predicate.to_string(), "(i.a#0 > 7)");
                assert!(matches!(input.as_ref(), LogicalPlan::Join { .. }));
            }
            other => panic!("expected residual filter, got:\n{other}"),
        }
    }

    #[test]
    fn correlation_under_aggregate_rejected() {
        let subquery = LogicalPlan::Aggregate {
            group_exprs: vec![],
            aggr_exprs: vec![Expr::Aggregate {
                func: sparkline_plan::AggregateFunction::Count,
                arg: None,
            }],
            input: Arc::new(LogicalPlan::Filter {
                predicate: inner_col(0).eq(outer_col(0)),
                input: Arc::new(scan("i")),
            }),
        };
        let plan = LogicalPlan::Filter {
            predicate: Expr::Exists {
                subquery: Arc::new(subquery),
                negated: false,
            },
            input: Arc::new(scan("o")),
        };
        assert!(rewrite_exists_subqueries(&plan).is_err());
    }

    #[test]
    fn plans_without_exists_untouched() {
        let plan = LogicalPlan::Filter {
            predicate: inner_col(0).gt(Expr::lit(1i64)),
            input: Arc::new(scan("o")),
        };
        assert_eq!(rewrite_exists_subqueries(&plan).unwrap(), plan);
    }
}
