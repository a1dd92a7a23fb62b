//! Skyline-specific optimizer rules (paper §5.4):
//!
//! * [`rewrite_single_dim_skyline`] — a skyline over exactly one `MIN` or
//!   `MAX` dimension is just "all tuples attaining the optimum"; instead of
//!   O(n log n) sort-and-select the paper picks the O(n) scalar-optimum +
//!   selection form, which our [`LogicalPlan::MinMaxFilter`] node executes
//!   in two linear passes. Tuples that are NULL in the dimension are
//!   incomparable to everything and therefore kept, which makes the rewrite
//!   valid for incomplete data as well.
//! * [`push_skyline_below_join`] — if the skyline's input is a
//!   *non-reductive* join (Carey & Kossmann \[6\]) and all skyline dimensions
//!   come from the join's left side, the skyline may be evaluated before
//!   the join, shrinking the inputs of both operators. Left outer joins are
//!   structurally non-reductive for their left side; inner equi-joins
//!   qualify when the catalog declares a foreign-key guarantee.
//! * [`drop_diff_only_skyline`] — a skyline whose dimensions are all
//!   `DIFF` cannot eliminate any tuple (dominance requires strict
//!   improvement in some `MIN`/`MAX` dimension) and is removed when it is
//!   not `DISTINCT`.
//! * [`infer_complete_skyline`] — Listing 8's nullability check promoted
//!   to a logical rewrite: a skyline none of whose dimensions can be NULL
//!   is marked `COMPLETE`, so the plan itself carries the metadata the
//!   physical strategy selection (`sparkline_common::strategy`) consumes
//!   and `EXPLAIN` shows which algorithm family will run.

use std::sync::Arc;

use sparkline_common::{Result, SkylineType};
use sparkline_plan::{
    CatalogProvider, Expr, JoinCondition, JoinType, LogicalPlan, MinMaxDirection,
};

/// Rewrite single-dimension `MIN`/`MAX` skylines into [`LogicalPlan::MinMaxFilter`].
pub fn rewrite_single_dim_skyline(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Skyline {
            distinct,
            complete: _,
            dims,
            input,
        } = &node
        else {
            return Ok(node);
        };
        if dims.len() != 1 {
            return Ok(node);
        }
        let Some(direction) = MinMaxDirection::from_skyline_type(dims[0].ty) else {
            return Ok(node);
        };
        Ok(LogicalPlan::MinMaxFilter {
            expr: dims[0].child.clone(),
            direction,
            distinct: *distinct,
            input: Arc::clone(input),
        })
    })
}

/// Mark skylines over non-nullable dimensions as `COMPLETE` (Listing 8's
/// metadata check, moved from the physical planner into the optimizer so
/// the logical plan carries the decision).
pub fn infer_complete_skyline(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Skyline {
            distinct,
            complete: false,
            dims,
            input,
        } = &node
        else {
            return Ok(node);
        };
        let schema = input.schema()?;
        let any_nullable = dims
            .iter()
            .map(|d| Ok(d.child.data_type_and_nullable(&schema)?.1))
            .collect::<Result<Vec<bool>>>()?
            .into_iter()
            .any(|nullable| nullable);
        if any_nullable {
            return Ok(node);
        }
        Ok(LogicalPlan::Skyline {
            distinct: *distinct,
            complete: true,
            dims: dims.clone(),
            input: Arc::clone(input),
        })
    })
}

/// Remove skylines with only `DIFF` dimensions (no tuple can be dominated).
pub fn drop_diff_only_skyline(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        if let LogicalPlan::Skyline {
            distinct: false,
            dims,
            input,
            ..
        } = &node
        {
            if !dims.is_empty() && dims.iter().all(|d| d.ty == SkylineType::Diff) {
                return Ok(input.as_ref().clone());
            }
        }
        Ok(node)
    })
}

/// Push a skyline below a non-reductive join (paper §5.4, after \[5\]/\[6\]).
pub fn push_skyline_below_join(
    plan: &LogicalPlan,
    catalog: Option<&dyn CatalogProvider>,
) -> Result<LogicalPlan> {
    plan.transform_up(&mut |node| {
        let LogicalPlan::Skyline {
            distinct,
            complete,
            dims,
            input,
        } = &node
        else {
            return Ok(node);
        };
        // SKYLINE OF DISTINCT cannot be pushed: the join may re-multiply a
        // deduplicated representative, changing output cardinality.
        if *distinct {
            return Ok(node);
        }
        // The analyzer's missing-reference rule (Listing 6) often leaves a
        // projection between the skyline and the join; dimensions are
        // re-expressed through it so the join becomes visible.
        let (join_node, dims) = match input.as_ref() {
            LogicalPlan::Projection {
                exprs: proj_exprs,
                input: proj_input,
            } if matches!(proj_input.as_ref(), LogicalPlan::Join { .. }) => {
                let substituted = dims
                    .iter()
                    .map(|d| {
                        Ok(sparkline_plan::SkylineDimension {
                            child: substitute_through_projection(d.child.clone(), proj_exprs)?,
                            ty: d.ty,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                (proj_input.as_ref(), substituted)
            }
            other => (other, dims.clone()),
        };
        let LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
        } = join_node
        else {
            return Ok(node);
        };
        let left_len = left.schema()?.len();
        // All dimensions must be computed purely from left-side columns.
        let dims_on_left = dims.iter().all(|d| {
            let mut idx = Vec::new();
            d.child.referenced_indices(&mut idx);
            !idx.is_empty() && idx.iter().all(|&i| i < left_len)
        });
        if !dims_on_left {
            return Ok(node);
        }
        let non_reductive = match join_type {
            // Every left tuple survives a left outer join at least once.
            JoinType::LeftOuter => true,
            // Inner equi-joins qualify when a foreign-key constraint
            // guarantees a partner for every left tuple.
            JoinType::Inner => inner_join_guaranteed(left, right, condition, left_len, catalog),
            _ => false,
        };
        if !non_reductive {
            return Ok(node);
        }
        let pushed = LogicalPlan::Skyline {
            distinct: *distinct,
            complete: *complete,
            dims,
            input: Arc::clone(left),
        };
        let new_join = LogicalPlan::Join {
            left: Arc::new(pushed),
            right: Arc::clone(right),
            join_type: *join_type,
            condition: condition.clone(),
        };
        // Re-attach the intervening projection, if one was looked through.
        Ok(match input.as_ref() {
            LogicalPlan::Projection {
                exprs: proj_exprs, ..
            } => LogicalPlan::Projection {
                exprs: proj_exprs.clone(),
                input: Arc::new(new_join),
            },
            _ => new_join,
        })
    })
}

/// Re-express an expression over a projection's *input* by inlining the
/// projection expressions its bound references point at.
fn substitute_through_projection(e: Expr, proj_exprs: &[Expr]) -> Result<Expr> {
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

/// Check the foreign-key guarantee for an inner equi-join: the condition is
/// a single `left.col = right.col` between two base table scans, and the
/// catalog guarantees a partner for every left tuple.
fn inner_join_guaranteed(
    left: &LogicalPlan,
    right: &LogicalPlan,
    condition: &JoinCondition,
    left_len: usize,
    catalog: Option<&dyn CatalogProvider>,
) -> bool {
    let Some(catalog) = catalog else {
        return false;
    };
    let JoinCondition::On(expr) = condition else {
        return false;
    };
    let Expr::BinaryOp {
        left: cl,
        op: sparkline_plan::BinaryOp::Eq,
        right: cr,
    } = expr
    else {
        return false;
    };
    let (Expr::BoundColumn(a), Expr::BoundColumn(b)) = (cl.as_ref(), cr.as_ref()) else {
        return false;
    };
    // Normalize to (left column, right column).
    let (lc, rc) = if a.index < left_len && b.index >= left_len {
        (a, b)
    } else if b.index < left_len && a.index >= left_len {
        (b, a)
    } else {
        return false;
    };
    // A NULL foreign key would have no partner.
    if lc.field.nullable() {
        return false;
    }
    let (Some(lt), Some(rt)) = (base_table(left), base_table(right)) else {
        return false;
    };
    catalog.guarantees_partner(lt, lc.field.name(), rt, rc.field.name())
}

/// The base table name if the plan is a bare scan (possibly aliased).
fn base_table(plan: &LogicalPlan) -> Option<&str> {
    match plan {
        LogicalPlan::TableScan { name, .. } => Some(name),
        LogicalPlan::SubqueryAlias { input, .. } => base_table(input),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema};
    use sparkline_plan::{BoundColumn, SkylineDimension, StaticCatalog};

    fn scan(name: &str, cols: &[(&str, bool)]) -> LogicalPlan {
        LogicalPlan::TableScan {
            name: name.into(),
            schema: Schema::new(
                cols.iter()
                    .map(|(c, nullable)| Field::qualified(name, *c, DataType::Int64, *nullable))
                    .collect(),
            )
            .into_ref(),
        }
    }

    fn bound(plan: &LogicalPlan, index: usize) -> Expr {
        // For joins, index against the combined schema of children.
        let field = match plan {
            LogicalPlan::Join { left, right, .. } => {
                let ls = left.schema().unwrap();
                if index < ls.len() {
                    ls.field(index).clone()
                } else {
                    right.schema().unwrap().field(index - ls.len()).clone()
                }
            }
            other => other.schema().unwrap().field(index).clone(),
        };
        Expr::BoundColumn(BoundColumn { index, field })
    }

    fn skyline_over(
        input: LogicalPlan,
        dims: Vec<(usize, SkylineType)>,
        distinct: bool,
    ) -> LogicalPlan {
        let dim_exprs = dims
            .into_iter()
            .map(|(i, ty)| SkylineDimension::new(bound(&input, i), ty))
            .collect();
        LogicalPlan::Skyline {
            distinct,
            complete: true,
            dims: dim_exprs,
            input: Arc::new(input),
        }
    }

    #[test]
    fn single_min_dim_becomes_minmax_filter() {
        let plan = skyline_over(
            scan("t", &[("a", false)]),
            vec![(0, SkylineType::Min)],
            false,
        );
        let optimized = rewrite_single_dim_skyline(&plan).unwrap();
        match optimized {
            LogicalPlan::MinMaxFilter {
                direction,
                distinct,
                ..
            } => {
                assert_eq!(direction, MinMaxDirection::Min);
                assert!(!distinct);
            }
            other => panic!("expected MinMaxFilter, got:\n{other}"),
        }
    }

    #[test]
    fn single_max_dim_with_distinct() {
        let plan = skyline_over(scan("t", &[("a", true)]), vec![(0, SkylineType::Max)], true);
        let optimized = rewrite_single_dim_skyline(&plan).unwrap();
        assert!(matches!(
            optimized,
            LogicalPlan::MinMaxFilter {
                direction: MinMaxDirection::Max,
                distinct: true,
                ..
            }
        ));
    }

    #[test]
    fn multi_dim_skyline_untouched() {
        let plan = skyline_over(
            scan("t", &[("a", false), ("b", false)]),
            vec![(0, SkylineType::Min), (1, SkylineType::Max)],
            false,
        );
        assert_eq!(rewrite_single_dim_skyline(&plan).unwrap(), plan);
    }

    #[test]
    fn single_diff_dim_untouched_by_minmax_rule() {
        let plan = skyline_over(
            scan("t", &[("a", false)]),
            vec![(0, SkylineType::Diff)],
            false,
        );
        assert_eq!(rewrite_single_dim_skyline(&plan).unwrap(), plan);
    }

    /// Like [`skyline_over`] but without the user-declared `COMPLETE`.
    fn undeclared_skyline_over(input: LogicalPlan, dims: Vec<(usize, SkylineType)>) -> LogicalPlan {
        match skyline_over(input, dims, false) {
            LogicalPlan::Skyline {
                distinct,
                dims,
                input,
                ..
            } => LogicalPlan::Skyline {
                distinct,
                complete: false,
                dims,
                input,
            },
            other => other,
        }
    }

    #[test]
    fn non_nullable_skyline_inferred_complete() {
        let plan = undeclared_skyline_over(
            scan("t", &[("a", false), ("b", false)]),
            vec![(0, SkylineType::Min), (1, SkylineType::Max)],
        );
        let optimized = infer_complete_skyline(&plan).unwrap();
        assert!(
            matches!(optimized, LogicalPlan::Skyline { complete: true, .. }),
            "{optimized}"
        );
    }

    #[test]
    fn nullable_skyline_stays_incomplete() {
        let plan = undeclared_skyline_over(
            scan("t", &[("a", false), ("b", true)]),
            vec![(0, SkylineType::Min), (1, SkylineType::Max)],
        );
        let optimized = infer_complete_skyline(&plan).unwrap();
        assert!(
            matches!(
                optimized,
                LogicalPlan::Skyline {
                    complete: false,
                    ..
                }
            ),
            "{optimized}"
        );
    }

    #[test]
    fn diff_only_skyline_dropped() {
        let plan = skyline_over(
            scan("t", &[("a", false)]),
            vec![(0, SkylineType::Diff)],
            false,
        );
        let optimized = drop_diff_only_skyline(&plan).unwrap();
        assert!(matches!(optimized, LogicalPlan::TableScan { .. }));
    }

    #[test]
    fn diff_only_distinct_skyline_kept() {
        let plan = skyline_over(
            scan("t", &[("a", false)]),
            vec![(0, SkylineType::Diff)],
            true,
        );
        assert_eq!(drop_diff_only_skyline(&plan).unwrap(), plan);
    }

    fn left_outer_join() -> LogicalPlan {
        LogicalPlan::Join {
            left: Arc::new(scan("l", &[("a", false), ("b", false)])),
            right: Arc::new(scan("r", &[("c", false)])),
            join_type: JoinType::LeftOuter,
            condition: JoinCondition::None,
        }
    }

    #[test]
    fn pushes_skyline_below_left_outer_join() {
        let join = left_outer_join();
        let plan = skyline_over(
            join,
            vec![(0, SkylineType::Min), (1, SkylineType::Max)],
            false,
        );
        let optimized = push_skyline_below_join(&plan, None).unwrap();
        match &optimized {
            LogicalPlan::Join { left, .. } => {
                assert!(
                    matches!(left.as_ref(), LogicalPlan::Skyline { .. }),
                    "skyline moved into left side:\n{optimized}"
                );
            }
            other => panic!("expected join on top, got:\n{other}"),
        }
    }

    #[test]
    fn no_pushdown_when_dims_touch_right_side() {
        let join = left_outer_join();
        let plan = skyline_over(
            join,
            vec![(0, SkylineType::Min), (2, SkylineType::Max)],
            false,
        );
        let optimized = push_skyline_below_join(&plan, None).unwrap();
        assert!(matches!(optimized, LogicalPlan::Skyline { .. }));
    }

    #[test]
    fn no_pushdown_for_distinct_skyline() {
        let join = left_outer_join();
        let plan = skyline_over(join, vec![(0, SkylineType::Min)], true);
        let optimized = push_skyline_below_join(&plan, None).unwrap();
        assert!(matches!(optimized, LogicalPlan::Skyline { .. }));
    }

    #[test]
    fn inner_join_pushdown_requires_fk_guarantee() {
        let mk_join = || LogicalPlan::Join {
            left: Arc::new(scan("track", &[("recording", false), ("pos", false)])),
            right: Arc::new(scan("recording", &[("id", false)])),
            join_type: JoinType::Inner,
            condition: JoinCondition::On(
                Expr::BoundColumn(BoundColumn {
                    index: 0,
                    field: Field::qualified("track", "recording", DataType::Int64, false),
                })
                .eq(Expr::BoundColumn(BoundColumn {
                    index: 2,
                    field: Field::qualified("recording", "id", DataType::Int64, false),
                })),
            ),
        };
        let plan = skyline_over(mk_join(), vec![(1, SkylineType::Min)], false);

        // Without the FK: no pushdown.
        let untouched = push_skyline_below_join(&plan, None).unwrap();
        assert!(matches!(untouched, LogicalPlan::Skyline { .. }));
        let empty = StaticCatalog::new();
        let untouched = push_skyline_below_join(&plan, Some(&empty)).unwrap();
        assert!(matches!(untouched, LogicalPlan::Skyline { .. }));

        // With the FK declared: pushdown fires.
        let mut cat = StaticCatalog::new();
        cat.register_foreign_key("track", "recording", "recording", "id");
        let optimized = push_skyline_below_join(&plan, Some(&cat)).unwrap();
        match &optimized {
            LogicalPlan::Join { left, .. } => {
                assert!(matches!(left.as_ref(), LogicalPlan::Skyline { .. }));
            }
            other => panic!("expected join with pushed skyline, got:\n{other}"),
        }
    }
}
