//! Generic relational rewrites: filter merging and pushdown, projection
//! collapsing, and no-op projection elimination. These are the "default
//! optimizations of Spark \[that\] also apply to skyline queries" (paper
//! §5.4) — skyline inputs produced by complex queries benefit from them.

use std::sync::Arc;

use sparkline_common::Result;
use sparkline_plan::{BoundColumn, Expr, JoinType, LogicalPlan};

/// Split a predicate into its top-level AND conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::BinaryOp {
            left,
            op: sparkline_plan::BinaryOp::And,
            right,
        } => {
            let mut v = split_conjuncts(left);
            v.extend(split_conjuncts(right));
            v
        }
        other => vec![other.clone()],
    }
}

/// AND together a list of conjuncts (`None` for the empty list).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(|a, b| a.and(b))
}

/// Whether all column references in `e` fall in `[lo, hi)`.
fn references_within(e: &Expr, lo: usize, hi: usize) -> bool {
    let mut idx = Vec::new();
    e.referenced_indices(&mut idx);
    idx.iter().all(|&i| lo <= i && i < hi)
}

/// Shift every bound column reference by `-offset` (used when pushing a
/// predicate into the right side of a join).
fn shift_references(e: Expr, offset: usize) -> Result<Expr> {
    e.transform_up(&mut |node| {
        Ok(match node {
            Expr::BoundColumn(c) => Expr::BoundColumn(BoundColumn {
                index: c.index - offset,
                field: c.field,
            }),
            other => other,
        })
    })
}

/// Merge adjacent filters: `Filter(a, Filter(b, x)) → Filter(a AND b, x)`.
pub fn merge_filters(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        if let LogicalPlan::Filter { predicate, input } = &node {
            if let LogicalPlan::Filter {
                predicate: inner_pred,
                input: inner_input,
            } = input.as_ref()
            {
                // Keep the inner predicate first: it was closer to the data
                // and may be more selective.
                return Ok(LogicalPlan::Filter {
                    predicate: inner_pred.clone().and(predicate.clone()),
                    input: Arc::clone(inner_input),
                });
            }
        }
        Ok(node)
    })
}

/// Push filters towards the data: below projections and into join inputs.
///
/// Skyline note: a filter is **never** pushed below a `Skyline` (or
/// `MinMaxFilter`) node — removing tuples before the skyline can promote
/// previously dominated tuples into the result, which would change query
/// semantics.
pub fn push_down_filters(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Filter { predicate, input } = &node else {
            return Ok(node);
        };
        // Exists predicates are handled by the subquery rewrite; do not
        // reorder them.
        let mut has_exists = false;
        let mut probe = |e: &Expr| {
            if matches!(e, Expr::Exists { .. }) {
                has_exists = true;
            }
        };
        fn walk(e: &Expr, f: &mut dyn FnMut(&Expr)) {
            f(e);
            for c in e.children() {
                walk(c, f);
            }
        }
        walk(predicate, &mut probe);
        if has_exists {
            return Ok(node);
        }

        match input.as_ref() {
            // Filter(Projection) → Projection(Filter) with substituted
            // predicate.
            LogicalPlan::Projection { exprs, input: p_in } => {
                let substituted = substitute(predicate.clone(), exprs)?;
                Ok(LogicalPlan::Projection {
                    exprs: exprs.clone(),
                    input: Arc::new(LogicalPlan::Filter {
                        predicate: substituted,
                        input: Arc::clone(p_in),
                    }),
                })
            }
            // Filter(Sort) → Sort(Filter): fewer rows to sort.
            LogicalPlan::Sort { exprs, input: s_in } => Ok(LogicalPlan::Sort {
                exprs: exprs.clone(),
                input: Arc::new(LogicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: Arc::clone(s_in),
                }),
            }),
            // Filter(Join) → push one-sided conjuncts into the inputs.
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => {
                let left_len = left.schema()?.len();
                let right_len = if join_type.emits_right() {
                    right.schema()?.len()
                } else {
                    0
                };
                let mut to_left = Vec::new();
                let mut to_right = Vec::new();
                let mut keep = Vec::new();
                for c in split_conjuncts(predicate) {
                    if references_within(&c, 0, left_len) {
                        to_left.push(c);
                    } else if *join_type == JoinType::Inner
                        && right_len > 0
                        && references_within(&c, left_len, left_len + right_len)
                    {
                        // Only safe for inner joins: under a left outer
                        // join, right-side predicates interact with NULL
                        // padding.
                        to_right.push(shift_references(c, left_len)?);
                    } else {
                        keep.push(c);
                    }
                }
                if to_left.is_empty() && to_right.is_empty() {
                    return Ok(node);
                }
                let new_left = match conjoin(to_left) {
                    Some(p) => Arc::new(LogicalPlan::Filter {
                        predicate: p,
                        input: Arc::clone(left),
                    }),
                    None => Arc::clone(left),
                };
                let new_right = match conjoin(to_right) {
                    Some(p) => Arc::new(LogicalPlan::Filter {
                        predicate: p,
                        input: Arc::clone(right),
                    }),
                    None => Arc::clone(right),
                };
                let join = LogicalPlan::Join {
                    left: new_left,
                    right: new_right,
                    join_type: *join_type,
                    condition: condition.clone(),
                };
                Ok(match conjoin(keep) {
                    Some(p) => LogicalPlan::Filter {
                        predicate: p,
                        input: Arc::new(join),
                    },
                    None => join,
                })
            }
            _ => Ok(node),
        }
    })
}

/// Push `Limit` below row-preserving narrow operators — projections and
/// subquery aliases — and merge stacked limits.
///
/// A projection emits exactly one row per input row in input order, so
/// `Limit(Project(x))` and `Project(Limit(x))` are equivalent; pushing the
/// limit down lets the streaming scan's short-circuit see it, so a
/// `SELECT expr FROM t LIMIT k` reads `O(k)` rows instead of evaluating
/// the projection over the whole table. Filters, sorts, aggregates,
/// distinct, joins, and skylines are *not* row-preserving — a limit never
/// moves below those.
pub fn push_down_limits(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Limit { n, input } = &node else {
            return Ok(node);
        };
        Ok(match input.as_ref() {
            // Limit(Project) → Project(Limit).
            LogicalPlan::Projection { exprs, input: p_in } => LogicalPlan::Projection {
                exprs: exprs.clone(),
                input: Arc::new(LogicalPlan::Limit {
                    n: *n,
                    input: Arc::clone(p_in),
                }),
            },
            // Limit(Alias) → Alias(Limit).
            LogicalPlan::SubqueryAlias { alias, input: a_in } => LogicalPlan::SubqueryAlias {
                alias: alias.clone(),
                input: Arc::new(LogicalPlan::Limit {
                    n: *n,
                    input: Arc::clone(a_in),
                }),
            },
            // Limit(Limit) → the tighter limit.
            LogicalPlan::Limit {
                n: inner,
                input: l_in,
            } => LogicalPlan::Limit {
                n: (*n).min(*inner),
                input: Arc::clone(l_in),
            },
            _ => node,
        })
    })
}

/// Replace bound references in `e` with the projection expressions they
/// point at (inlining through a projection).
fn substitute(e: Expr, proj_exprs: &[Expr]) -> Result<Expr> {
    fn strip(e: &Expr) -> Expr {
        match e {
            Expr::Alias { expr, .. } => strip(expr),
            other => other.clone(),
        }
    }
    e.transform_up(&mut |node| {
        Ok(match node {
            Expr::BoundColumn(c) => strip(&proj_exprs[c.index]),
            other => other,
        })
    })
}

/// Collapse stacked projections and remove identity projections.
pub fn collapse_projections(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        if let LogicalPlan::Projection { exprs, input } = &node {
            // Projection(Projection) → single projection.
            if let LogicalPlan::Projection {
                exprs: inner,
                input: inner_input,
            } = input.as_ref()
            {
                let merged: Vec<Expr> = exprs
                    .iter()
                    .map(|e| {
                        let name = e.output_name();
                        let substituted = substitute(e.clone(), inner)?;
                        // Preserve the outer projection's output names.
                        Ok(if substituted.output_name() != name {
                            substituted.alias(name)
                        } else {
                            substituted
                        })
                    })
                    .collect::<Result<_>>()?;
                return Ok(LogicalPlan::Projection {
                    exprs: merged,
                    input: Arc::clone(inner_input),
                });
            }
            // Identity projection → drop.
            let child_schema = input.schema()?;
            let is_identity = exprs.len() == child_schema.len()
                && exprs.iter().enumerate().all(|(i, e)| match e {
                    Expr::BoundColumn(c) => c.index == i && c.field == *child_schema.field(i),
                    _ => false,
                });
            if is_identity {
                return Ok(input.as_ref().clone());
            }
        }
        Ok(node)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema};

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            name: "t".into(),
            schema: Schema::new(vec![
                Field::qualified("t", "a", DataType::Int64, false),
                Field::qualified("t", "b", DataType::Int64, false),
            ])
            .into_ref(),
        }
    }

    fn bound(i: usize, name: &str) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: Field::qualified("t", name, DataType::Int64, false),
        })
    }

    #[test]
    fn conjunct_splitting() {
        let e = bound(0, "a")
            .eq(Expr::lit(1i64))
            .and(bound(1, "b").gt(Expr::lit(2i64)))
            .and(Expr::lit(true));
        assert_eq!(split_conjuncts(&e).len(), 3);
        let rejoined = conjoin(split_conjuncts(&e)).unwrap();
        assert_eq!(split_conjuncts(&rejoined).len(), 3);
    }

    #[test]
    fn merges_adjacent_filters() {
        let plan = LogicalPlan::Filter {
            predicate: bound(0, "a").gt(Expr::lit(1i64)),
            input: Arc::new(LogicalPlan::Filter {
                predicate: bound(1, "b").gt(Expr::lit(2i64)),
                input: Arc::new(scan()),
            }),
        };
        let merged = merge_filters(&plan).unwrap();
        match merged {
            LogicalPlan::Filter { predicate, input } => {
                assert_eq!(split_conjuncts(&predicate).len(), 2);
                assert!(matches!(input.as_ref(), LogicalPlan::TableScan { .. }));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn pushes_filter_below_projection() {
        let plan = LogicalPlan::Filter {
            predicate: bound(0, "a").gt(Expr::lit(1i64)),
            input: Arc::new(LogicalPlan::Projection {
                exprs: vec![bound(1, "b").alias("a")],
                input: Arc::new(scan()),
            }),
        };
        let optimized = push_down_filters(&plan).unwrap();
        match &optimized {
            LogicalPlan::Projection { input, .. } => match input.as_ref() {
                LogicalPlan::Filter { predicate, .. } => {
                    // The predicate now references the *inner* column b#1.
                    assert_eq!(predicate.to_string(), "(t.b#1 > 1)");
                }
                other => panic!("expected filter below projection, got {other}"),
            },
            other => panic!("expected projection on top, got {other}"),
        }
    }

    #[test]
    fn pushes_one_sided_conjuncts_into_inner_join() {
        let join = LogicalPlan::Join {
            left: Arc::new(scan()),
            right: Arc::new(scan()),
            join_type: JoinType::Inner,
            condition: sparkline_plan::JoinCondition::None,
        };
        let plan = LogicalPlan::Filter {
            predicate: bound(0, "a")
                .gt(Expr::lit(1i64))
                .and(bound(2, "a").lt(Expr::lit(5i64)))
                .and(bound(0, "a").eq(bound(3, "b"))),
            input: Arc::new(join),
        };
        let optimized = push_down_filters(&plan).unwrap();
        let d = optimized.display_indent();
        // Mixed conjunct stays above, one-sided ones moved below.
        let lines: Vec<&str> = d.lines().map(str::trim).collect();
        assert!(lines[0].starts_with("Filter [(t.a#0 = t.b#3)]"), "{d}");
        assert!(lines[1].starts_with("Join"), "{d}");
        assert!(lines[2].starts_with("Filter [(t.a#0 > 1)]"), "{d}");
        assert!(lines[4].starts_with("Filter [(t.a#0 < 5)]"), "{d}");
    }

    #[test]
    fn left_outer_join_keeps_right_side_filter_above() {
        let join = LogicalPlan::Join {
            left: Arc::new(scan()),
            right: Arc::new(scan()),
            join_type: JoinType::LeftOuter,
            condition: sparkline_plan::JoinCondition::None,
        };
        let plan = LogicalPlan::Filter {
            predicate: bound(2, "a").lt(Expr::lit(5i64)),
            input: Arc::new(join),
        };
        let optimized = push_down_filters(&plan).unwrap();
        assert!(
            matches!(optimized, LogicalPlan::Filter { .. }),
            "right-side filter must stay above a left outer join"
        );
    }

    #[test]
    fn pushes_limit_below_projection() {
        let plan = LogicalPlan::Limit {
            n: 5,
            input: Arc::new(LogicalPlan::Projection {
                exprs: vec![bound(1, "b").alias("x")],
                input: Arc::new(scan()),
            }),
        };
        let optimized = push_down_limits(&plan).unwrap();
        match &optimized {
            LogicalPlan::Projection { input, .. } => match input.as_ref() {
                LogicalPlan::Limit { n, input } => {
                    assert_eq!(*n, 5);
                    assert!(matches!(input.as_ref(), LogicalPlan::TableScan { .. }));
                }
                other => panic!("expected limit below projection, got {other}"),
            },
            other => panic!("expected projection on top, got {other}"),
        }
    }

    #[test]
    fn merges_stacked_limits_and_passes_aliases() {
        let plan = LogicalPlan::Limit {
            n: 3,
            input: Arc::new(LogicalPlan::SubqueryAlias {
                alias: "s".into(),
                input: Arc::new(LogicalPlan::Limit {
                    n: 10,
                    input: Arc::new(scan()),
                }),
            }),
        };
        // Fixpoint: one pass moves the limit through the alias, the next
        // merges it with the inner one.
        let mut optimized = plan;
        for _ in 0..3 {
            optimized = push_down_limits(&optimized).unwrap();
        }
        match &optimized {
            LogicalPlan::SubqueryAlias { input, .. } => match input.as_ref() {
                LogicalPlan::Limit { n, input } => {
                    assert_eq!(*n, 3, "tighter limit wins");
                    assert!(matches!(input.as_ref(), LogicalPlan::TableScan { .. }));
                }
                other => panic!("expected merged limit, got {other}"),
            },
            other => panic!("expected alias on top, got {other}"),
        }
    }

    #[test]
    fn limit_never_pushed_below_non_row_preserving_ops() {
        use sparkline_common::SkylineType;
        use sparkline_plan::SkylineDimension;
        let below_filter = LogicalPlan::Limit {
            n: 2,
            input: Arc::new(LogicalPlan::Filter {
                predicate: bound(0, "a").gt(Expr::lit(1i64)),
                input: Arc::new(scan()),
            }),
        };
        assert!(matches!(
            push_down_limits(&below_filter).unwrap(),
            LogicalPlan::Limit { .. }
        ));
        let below_skyline = LogicalPlan::Limit {
            n: 2,
            input: Arc::new(LogicalPlan::Skyline {
                distinct: false,
                complete: true,
                dims: vec![SkylineDimension::new(bound(0, "a"), SkylineType::Min)],
                input: Arc::new(scan()),
            }),
        };
        assert!(matches!(
            push_down_limits(&below_skyline).unwrap(),
            LogicalPlan::Limit { .. }
        ));
    }

    #[test]
    fn collapses_stacked_projections() {
        let plan = LogicalPlan::Projection {
            exprs: vec![bound(0, "x")],
            input: Arc::new(LogicalPlan::Projection {
                exprs: vec![bound(1, "b").alias("x"), bound(0, "a")],
                input: Arc::new(scan()),
            }),
        };
        let optimized = collapse_projections(&plan).unwrap();
        match &optimized {
            LogicalPlan::Projection { exprs, input } => {
                assert_eq!(exprs.len(), 1);
                assert!(matches!(input.as_ref(), LogicalPlan::TableScan { .. }));
                assert_eq!(exprs[0].output_name(), "x");
            }
            other => panic!("expected collapsed projection, got {other}"),
        }
    }

    #[test]
    fn drops_identity_projection() {
        let s = scan();
        let schema = s.schema().unwrap();
        let plan = LogicalPlan::Projection {
            exprs: (0..2)
                .map(|i| {
                    Expr::BoundColumn(BoundColumn {
                        index: i,
                        field: schema.field(i).clone(),
                    })
                })
                .collect(),
            input: Arc::new(s),
        };
        let optimized = collapse_projections(&plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::TableScan { .. }));
    }

    #[test]
    fn filter_never_pushed_below_skyline() {
        use sparkline_common::SkylineType;
        use sparkline_plan::SkylineDimension;
        let plan = LogicalPlan::Filter {
            predicate: bound(0, "a").gt(Expr::lit(1i64)),
            input: Arc::new(LogicalPlan::Skyline {
                distinct: false,
                complete: true,
                dims: vec![SkylineDimension::new(bound(0, "a"), SkylineType::Min)],
                input: Arc::new(scan()),
            }),
        };
        let optimized = push_down_filters(&plan).unwrap();
        assert!(
            matches!(optimized, LogicalPlan::Filter { .. }),
            "filter must remain above the skyline"
        );
    }
}
