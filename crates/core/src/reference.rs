//! The plain-SQL *reference* formulation of skyline queries (paper
//! Listing 4), used as the baseline algorithm in the evaluation (§6.3,
//! algorithm 4).
//!
//! [`rewrite_to_reference`] replaces every skyline operator in a resolved
//! plan with the `NOT EXISTS` anti-join the SQL rewrite would produce:
//!
//! ```sql
//! SELECT ... FROM rel AS o WHERE NOT EXISTS(
//!   SELECT * FROM rel AS i
//!   WHERE i.min_dims <= o.min_dims AND i.max_dims >= o.max_dims
//!     AND i.diff_dims = o.diff_dims
//!     AND (i.min_dims < o.min_dims OR i.max_dims > o.max_dims))
//! ```
//!
//! The rewrite happens at the logical level (self anti-join with the
//! Listing 4 predicate), which is exactly what the engine's subquery
//! decorrelation produces for the textual query — the two paths share the
//! `NestedLoopJoinExec(LeftAnti)` execution.
//!
//! Note on NULL semantics: under SQL three-valued logic any NULL
//! comparison makes the `NOT EXISTS` predicate non-true, so on incomplete
//! data the reference query implements a *stricter* dominance than §3's
//! restricted relation — the paper accordingly compares against the
//! reference on incomplete data by runtime only.

use std::sync::Arc;

use sparkline_common::{Error, Result, SkylineType};
use sparkline_plan::{conjoin, BoundColumn, Expr, JoinCondition, JoinType, LogicalPlan};

/// Replace every `Skyline` node with the Listing 4 anti-join. The plan
/// must be resolved. `SKYLINE OF DISTINCT` has no plain-SQL counterpart in
/// Listing 4 and is rejected.
pub fn rewrite_to_reference(plan: &LogicalPlan) -> Result<LogicalPlan> {
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
        if *distinct {
            return Err(Error::plan(
                "SKYLINE OF DISTINCT has no plain-SQL reference rewrite (Listing 4)",
            ));
        }
        let width = input.schema()?.len();

        // Outer tuple `o` occupies columns [0, width); inner tuple `i`
        // occupies [width, 2*width).
        let shift_to_inner = |e: &Expr| -> Result<Expr> {
            e.clone().transform_up(&mut |x| {
                Ok(match x {
                    Expr::BoundColumn(c) => Expr::BoundColumn(BoundColumn {
                        index: c.index + width,
                        field: c.field,
                    }),
                    other => other,
                })
            })
        };

        let mut at_least_as_good = Vec::new();
        let mut strictly_better: Option<Expr> = None;
        for d in dims {
            let o = d.child.clone();
            let i = shift_to_inner(&d.child)?;
            let (weak, strict) = match d.ty {
                SkylineType::Min => (i.clone().lt_eq(o.clone()), Some(i.lt(o))),
                SkylineType::Max => (i.clone().gt_eq(o.clone()), Some(i.gt(o))),
                SkylineType::Diff => (i.eq(o), None),
            };
            at_least_as_good.push(weak);
            if let Some(s) = strict {
                strictly_better = Some(match strictly_better {
                    Some(acc) => acc.or(s),
                    None => s,
                });
            }
        }
        let weak = conjoin(at_least_as_good)
            .ok_or_else(|| Error::plan("skyline without dimensions cannot be rewritten"))?;
        let predicate = match strictly_better {
            Some(s) => weak.and(s),
            // Only DIFF dimensions: nothing can dominate, the anti join
            // keeps everything; use a never-true predicate.
            None => Expr::lit(false),
        };
        Ok(LogicalPlan::Join {
            left: Arc::clone(input),
            right: Arc::clone(input),
            join_type: JoinType::LeftAnti,
            condition: JoinCondition::On(predicate),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema};
    use sparkline_plan::SkylineDimension;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            name: "hotels".into(),
            schema: Schema::new(vec![
                Field::qualified("hotels", "price", DataType::Int64, false),
                Field::qualified("hotels", "rating", DataType::Int64, false),
            ])
            .into_ref(),
        }
    }

    fn bound(i: usize) -> Expr {
        let schema = scan().schema().unwrap();
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: schema.field(i).clone(),
        })
    }

    #[test]
    fn listing_4_shape() {
        let plan = LogicalPlan::Skyline {
            distinct: false,
            complete: true,
            dims: vec![
                SkylineDimension::new(bound(0), SkylineType::Min),
                SkylineDimension::new(bound(1), SkylineType::Max),
            ],
            input: Arc::new(scan()),
        };
        let reference = rewrite_to_reference(&plan).unwrap();
        match &reference {
            LogicalPlan::Join {
                join_type,
                condition,
                ..
            } => {
                assert_eq!(*join_type, JoinType::LeftAnti);
                let JoinCondition::On(p) = condition else {
                    panic!("expected On");
                };
                assert_eq!(
                    p.to_string(),
                    "(((hotels.price#2 <= hotels.price#0) AND \
                      (hotels.rating#3 >= hotels.rating#1)) AND \
                      ((hotels.price#2 < hotels.price#0) OR \
                      (hotels.rating#3 > hotels.rating#1)))"
                );
            }
            other => panic!("expected anti join, got:\n{other}"),
        }
    }

    #[test]
    fn diff_dims_produce_equalities() {
        let plan = LogicalPlan::Skyline {
            distinct: false,
            complete: true,
            dims: vec![
                SkylineDimension::new(bound(0), SkylineType::Diff),
                SkylineDimension::new(bound(1), SkylineType::Min),
            ],
            input: Arc::new(scan()),
        };
        let reference = rewrite_to_reference(&plan).unwrap();
        let d = reference.display_indent();
        assert!(d.contains("(hotels.price#2 = hotels.price#0)"), "{d}");
    }

    #[test]
    fn distinct_is_rejected() {
        let plan = LogicalPlan::Skyline {
            distinct: true,
            complete: true,
            dims: vec![SkylineDimension::new(bound(0), SkylineType::Min)],
            input: Arc::new(scan()),
        };
        assert!(rewrite_to_reference(&plan).is_err());
    }

    #[test]
    fn plans_without_skyline_unchanged() {
        let plan = scan();
        assert_eq!(rewrite_to_reference(&plan).unwrap(), plan);
    }
}
