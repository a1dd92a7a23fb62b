//! Logical query plans.
//!
//! A [`LogicalPlan`] is a tree of relational operators produced by the
//! parser or the DataFrame API. It starts *unresolved* (named relations and
//! columns) and is rewritten by the analyzer into resolved form, then by
//! the optimizer, before physical planning. The skyline operator is a
//! first-class node ([`LogicalPlan::Skyline`]) with a single child, exactly
//! as described in paper §5.2.

use std::fmt;
use std::sync::Arc;

use sparkline_common::{Error, Field, Result, Row, Schema, SchemaRef, SkylineType};

use crate::expr::{Expr, SkylineDimension, SortExpr};

/// Join types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join: every left tuple survives, right side padded with
    /// NULLs when no partner exists. Non-reductive for the left side, which
    /// the skyline-join pushdown rule (§5.4) exploits.
    LeftOuter,
    /// Left semi join: left tuples with at least one partner (EXISTS).
    LeftSemi,
    /// Left anti join: left tuples with no partner (NOT EXISTS — the shape
    /// of the paper's reference skyline queries, Listing 4).
    LeftAnti,
    /// Cross product.
    Cross,
}

impl JoinType {
    /// Whether the join's output contains the right side's columns.
    pub fn emits_right(self) -> bool {
        matches!(
            self,
            JoinType::Inner | JoinType::LeftOuter | JoinType::Cross
        )
    }

    /// Whether every left tuple appears at least once in the output
    /// (non-reductive on the left in the sense of Carey & Kossmann \[6\]).
    pub fn preserves_left(self) -> bool {
        matches!(self, JoinType::LeftOuter)
    }
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinType::Inner => "Inner",
            JoinType::LeftOuter => "LeftOuter",
            JoinType::LeftSemi => "LeftSemi",
            JoinType::LeftAnti => "LeftAnti",
            JoinType::Cross => "Cross",
        };
        f.write_str(s)
    }
}

/// The join condition.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinCondition {
    /// `ON <predicate>`; after analysis the predicate is bound against the
    /// concatenated left+right schema.
    On(Expr),
    /// `USING (col, ...)`; desugared by the analyzer into an equi-`On`
    /// condition plus a projection that keeps a single copy of each column.
    Using(Vec<String>),
    /// No condition (cross join).
    None,
}

/// Direction of the single-dimension skyline rewrite node.
///
/// A one-dimensional `MIN`/`MAX` skyline is just "all tuples attaining the
/// optimum" and is evaluated in two O(n) passes instead of the general
/// algorithm (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinMaxDirection {
    /// Keep tuples with the minimal value.
    Min,
    /// Keep tuples with the maximal value.
    Max,
}

impl MinMaxDirection {
    /// Convert from a skyline dimension type (`Diff` is not a direction).
    pub fn from_skyline_type(ty: SkylineType) -> Option<Self> {
        match ty {
            SkylineType::Min => Some(MinMaxDirection::Min),
            SkylineType::Max => Some(MinMaxDirection::Max),
            SkylineType::Diff => None,
        }
    }
}

impl fmt::Display for MinMaxDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MinMaxDirection::Min => "MIN",
            MinMaxDirection::Max => "MAX",
        })
    }
}

/// A logical relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A named relation not yet looked up in the catalog.
    UnresolvedRelation {
        /// Table name as written in the query.
        name: String,
    },
    /// A catalog table scan (resolved); the data is fetched from the
    /// session catalog at execution time by name.
    TableScan {
        /// Catalog table name.
        name: String,
        /// The table's schema, qualified by the table name or its alias.
        schema: SchemaRef,
    },
    /// Inline rows (DataFrame sources, `VALUES`, test fixtures).
    Values {
        /// Schema of the rows.
        schema: SchemaRef,
        /// The literal rows.
        rows: Arc<Vec<Row>>,
    },
    /// `SELECT <exprs>`.
    Projection {
        /// One expression per output column.
        exprs: Vec<Expr>,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// `WHERE` / `HAVING` predicate.
    Filter {
        /// Boolean predicate; rows evaluating to `true` survive.
        predicate: Expr,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// `GROUP BY` with result expressions. As in Spark, `aggr_exprs` are
    /// the *result* expressions (the select list): a mix of group
    /// expressions and aggregate calls; they alone define the output
    /// schema. `group_exprs` are the grouping keys.
    Aggregate {
        /// Grouping keys (may be empty for a global aggregate).
        group_exprs: Vec<Expr>,
        /// Result expressions (group refs and aggregate calls).
        aggr_exprs: Vec<Expr>,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// `ORDER BY`.
    Sort {
        /// Sort keys, highest priority first.
        exprs: Vec<SortExpr>,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// `LIMIT n`.
    Limit {
        /// Maximum number of rows.
        n: usize,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// Binary join.
    Join {
        /// Left input.
        left: Arc<LogicalPlan>,
        /// Right input.
        right: Arc<LogicalPlan>,
        /// Join type.
        join_type: JoinType,
        /// Join condition.
        condition: JoinCondition,
    },
    /// `FROM (...) AS alias` / `table AS alias`: re-qualifies the child's
    /// output columns.
    SubqueryAlias {
        /// The alias.
        alias: String,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// The skyline operator (paper §5.2): single child, output schema equal
    /// to the child's.
    Skyline {
        /// `SKYLINE OF DISTINCT`.
        distinct: bool,
        /// `SKYLINE OF ... COMPLETE`: user asserts no NULLs occur in the
        /// skyline dimensions, enabling the complete algorithm (§5.5).
        complete: bool,
        /// The skyline dimensions.
        dims: Vec<SkylineDimension>,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// `SELECT DISTINCT`.
    Distinct {
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
    /// Optimized single-dimension skyline: keep all tuples attaining the
    /// min/max of `expr` (produced by the §5.4 rewrite; never built
    /// directly from SQL).
    MinMaxFilter {
        /// The dimension expression.
        expr: Expr,
        /// Whether the minimum or maximum is kept.
        direction: MinMaxDirection,
        /// Inherited from the rewritten skyline: keep one representative.
        distinct: bool,
        /// Input plan.
        input: Arc<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The output schema. Errors if the plan is not sufficiently resolved.
    pub fn schema(&self) -> Result<SchemaRef> {
        match self {
            LogicalPlan::UnresolvedRelation { name } => Err(Error::analysis(format!(
                "relation '{name}' is not resolved"
            ))),
            LogicalPlan::TableScan { schema, .. } | LogicalPlan::Values { schema, .. } => {
                Ok(Arc::clone(schema))
            }
            LogicalPlan::Projection { exprs, input } => {
                let input_schema = input.schema()?;
                let fields: Vec<Field> = exprs
                    .iter()
                    .map(|e| e.to_field(&input_schema))
                    .collect::<Result<_>>()?;
                Ok(Schema::new(fields).into_ref())
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Skyline { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::MinMaxFilter { input, .. } => input.schema(),
            LogicalPlan::Aggregate {
                aggr_exprs, input, ..
            } => {
                let input_schema = input.schema()?;
                let fields: Vec<Field> = aggr_exprs
                    .iter()
                    .map(|e| e.to_field(&input_schema))
                    .collect::<Result<_>>()?;
                Ok(Schema::new(fields).into_ref())
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                ..
            } => {
                let ls = left.schema()?;
                if !join_type.emits_right() {
                    return Ok(ls);
                }
                let rs = right.schema()?;
                let rs = if *join_type == JoinType::LeftOuter {
                    // Right columns become nullable under a left outer join.
                    Schema::new(rs.fields().iter().map(|f| f.with_nullable(true)).collect())
                } else {
                    rs.as_ref().clone()
                };
                Ok(ls.join(&rs).into_ref())
            }
            LogicalPlan::SubqueryAlias { alias, input } => {
                Ok(input.schema()?.with_qualifier(alias).into_ref())
            }
        }
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::UnresolvedRelation { .. }
            | LogicalPlan::TableScan { .. }
            | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Projection { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::Skyline { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::MinMaxFilter { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Rebuild this node with new children (same count and order as
    /// [`LogicalPlan::children`]).
    pub fn with_new_children(&self, mut children: Vec<Arc<LogicalPlan>>) -> LogicalPlan {
        let mut next = || children.remove(0);
        match self {
            LogicalPlan::UnresolvedRelation { .. }
            | LogicalPlan::TableScan { .. }
            | LogicalPlan::Values { .. } => self.clone(),
            LogicalPlan::Projection { exprs, .. } => LogicalPlan::Projection {
                exprs: exprs.clone(),
                input: next(),
            },
            LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
                predicate: predicate.clone(),
                input: next(),
            },
            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                ..
            } => LogicalPlan::Aggregate {
                group_exprs: group_exprs.clone(),
                aggr_exprs: aggr_exprs.clone(),
                input: next(),
            },
            LogicalPlan::Sort { exprs, .. } => LogicalPlan::Sort {
                exprs: exprs.clone(),
                input: next(),
            },
            LogicalPlan::Limit { n, .. } => LogicalPlan::Limit {
                n: *n,
                input: next(),
            },
            LogicalPlan::Join {
                join_type,
                condition,
                ..
            } => {
                let left = next();
                let right = next();
                LogicalPlan::Join {
                    left,
                    right,
                    join_type: *join_type,
                    condition: condition.clone(),
                }
            }
            LogicalPlan::SubqueryAlias { alias, .. } => LogicalPlan::SubqueryAlias {
                alias: alias.clone(),
                input: next(),
            },
            LogicalPlan::Skyline {
                distinct,
                complete,
                dims,
                ..
            } => LogicalPlan::Skyline {
                distinct: *distinct,
                complete: *complete,
                dims: dims.clone(),
                input: next(),
            },
            LogicalPlan::Distinct { .. } => LogicalPlan::Distinct { input: next() },
            LogicalPlan::MinMaxFilter {
                expr,
                direction,
                distinct,
                ..
            } => LogicalPlan::MinMaxFilter {
                expr: expr.clone(),
                direction: *direction,
                distinct: *distinct,
                input: next(),
            },
        }
    }

    /// Bottom-up transformation: children first, then `f` on the rebuilt
    /// node. This is the workhorse of analyzer and optimizer rules
    /// (`resolveOperatorsUp` in Spark).
    pub fn transform_up(
        &self,
        f: &mut dyn FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        let new_children: Vec<Arc<LogicalPlan>> = self
            .children()
            .iter()
            .map(|c| c.transform_up(f).map(Arc::new))
            .collect::<Result<_>>()?;
        f(self.with_new_children(new_children))
    }

    /// Top-down transformation: `f` on this node first, then recurse into
    /// the (possibly new) children.
    pub fn transform_down(
        &self,
        f: &mut dyn FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        let transformed = f(self.clone())?;
        let new_children: Vec<Arc<LogicalPlan>> = transformed
            .children()
            .iter()
            .map(|c| c.transform_down(f).map(Arc::new))
            .collect::<Result<_>>()?;
        Ok(transformed.with_new_children(new_children))
    }

    /// The expressions held directly by this node (not its children's).
    pub fn expressions(&self) -> Vec<Expr> {
        match self {
            LogicalPlan::Projection { exprs, .. } => exprs.clone(),
            LogicalPlan::Filter { predicate, .. } => vec![predicate.clone()],
            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                ..
            } => group_exprs.iter().chain(aggr_exprs).cloned().collect(),
            LogicalPlan::Sort { exprs, .. } => exprs.iter().map(|s| s.expr.clone()).collect(),
            LogicalPlan::Join {
                condition: JoinCondition::On(e),
                ..
            } => vec![e.clone()],
            LogicalPlan::Join { .. } => vec![],
            LogicalPlan::Skyline { dims, .. } => dims.iter().map(|d| d.child.clone()).collect(),
            LogicalPlan::MinMaxFilter { expr, .. } => vec![expr.clone()],
            _ => vec![],
        }
    }

    /// Rewrite the expressions held directly by this node.
    pub fn map_expressions(&self, f: &mut dyn FnMut(Expr) -> Result<Expr>) -> Result<LogicalPlan> {
        let plan = self.clone();
        Ok(match plan {
            LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
                exprs: exprs.into_iter().map(&mut *f).collect::<Result<_>>()?,
                input,
            },
            LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
                predicate: f(predicate)?,
                input,
            },
            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                input,
            } => LogicalPlan::Aggregate {
                group_exprs: group_exprs
                    .into_iter()
                    .map(&mut *f)
                    .collect::<Result<_>>()?,
                aggr_exprs: aggr_exprs.into_iter().map(&mut *f).collect::<Result<_>>()?,
                input,
            },
            LogicalPlan::Sort { exprs, input } => LogicalPlan::Sort {
                exprs: exprs
                    .into_iter()
                    .map(|s| {
                        Ok(SortExpr {
                            expr: f(s.expr)?,
                            asc: s.asc,
                            nulls_first: s.nulls_first,
                        })
                    })
                    .collect::<Result<_>>()?,
                input,
            },
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => LogicalPlan::Join {
                left,
                right,
                join_type,
                condition: match condition {
                    JoinCondition::On(e) => JoinCondition::On(f(e)?),
                    other => other,
                },
            },
            LogicalPlan::Skyline {
                distinct,
                complete,
                dims,
                input,
            } => LogicalPlan::Skyline {
                distinct,
                complete,
                dims: dims
                    .into_iter()
                    .map(|d| {
                        Ok(SkylineDimension {
                            child: f(d.child)?,
                            ty: d.ty,
                        })
                    })
                    .collect::<Result<_>>()?,
                input,
            },
            LogicalPlan::MinMaxFilter {
                expr,
                direction,
                distinct,
                input,
            } => LogicalPlan::MinMaxFilter {
                expr: f(expr)?,
                direction,
                distinct,
                input,
            },
            other => other,
        })
    }

    /// Visit every expression of this node and (recursively) its children,
    /// including all sub-expressions. Does not descend into `Exists`
    /// subquery *plans* except through [`Expr`]'s own traversal contract.
    pub fn visit_expressions(&self, f: &mut dyn FnMut(&Expr)) {
        fn visit_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
            f(e);
            for c in e.children() {
                visit_expr(c, f);
            }
            if let Expr::Exists { subquery, .. } = e {
                subquery.visit_expressions(f);
            }
        }
        for e in self.expressions() {
            visit_expr(&e, f);
        }
        for child in self.children() {
            child.visit_expressions(f);
        }
    }

    /// Whether the plan (including all expressions) is fully resolved.
    pub fn resolved(&self) -> bool {
        if matches!(self, LogicalPlan::UnresolvedRelation { .. }) {
            return false;
        }
        self.expressions().iter().all(|e| e.resolved())
            && self.children().iter().all(|c| c.resolved())
    }

    /// One-line description of this node for plan display.
    pub fn node_description(&self) -> String {
        match self {
            LogicalPlan::UnresolvedRelation { name } => {
                format!("UnresolvedRelation [{name}]")
            }
            LogicalPlan::TableScan { name, .. } => format!("TableScan [{name}]"),
            LogicalPlan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
            LogicalPlan::Projection { exprs, .. } => format!(
                "Projection [{}]",
                exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Filter { predicate, .. } => format!("Filter [{predicate}]"),
            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                ..
            } => format!(
                "Aggregate [group: {}; aggr: {}]",
                group_exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                aggr_exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Sort { exprs, .. } => format!(
                "Sort [{}]",
                exprs
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Limit { n, .. } => format!("Limit [{n}]"),
            LogicalPlan::Join {
                join_type,
                condition,
                ..
            } => match condition {
                JoinCondition::On(e) => format!("Join [{join_type}, on: {e}]"),
                JoinCondition::Using(cols) => {
                    format!("Join [{join_type}, using: {}]", cols.join(", "))
                }
                JoinCondition::None => format!("Join [{join_type}]"),
            },
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias [{alias}]"),
            LogicalPlan::Skyline {
                distinct,
                complete,
                dims,
                ..
            } => {
                let mut flags = String::new();
                if *distinct {
                    flags.push_str(" DISTINCT");
                }
                if *complete {
                    flags.push_str(" COMPLETE");
                }
                format!(
                    "Skyline [{}{} of {}]",
                    flags.trim_start(),
                    if flags.is_empty() { "" } else { ";" },
                    dims.iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::MinMaxFilter {
                expr,
                direction,
                distinct,
                ..
            } => format!(
                "MinMaxFilter [{direction} {expr}{}]",
                if *distinct { " DISTINCT" } else { "" }
            ),
        }
    }

    /// Multi-line indented plan display (like Spark's `explain()`).
    pub fn display_indent(&self) -> String {
        fn build(plan: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&plan.node_description());
            out.push('\n');
            for child in plan.children() {
                build(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        build(self, 0, &mut out);
        out
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_indent().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Column;
    use sparkline_common::{DataType, Value};

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            name: "t".into(),
            schema: Schema::new(vec![
                Field::qualified("t", "a", DataType::Int64, false),
                Field::qualified("t", "b", DataType::Float64, true),
            ])
            .into_ref(),
        }
    }

    #[test]
    fn scan_schema() {
        let s = scan().schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).qualified_name(), "t.a");
    }

    #[test]
    fn filter_preserves_schema() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::lit(true),
            input: Arc::new(scan()),
        };
        assert_eq!(plan.schema().unwrap(), scan().schema().unwrap());
    }

    #[test]
    fn skyline_preserves_schema() {
        let plan = LogicalPlan::Skyline {
            distinct: false,
            complete: false,
            dims: vec![SkylineDimension::new(Expr::col("a"), SkylineType::Min)],
            input: Arc::new(scan()),
        };
        assert_eq!(plan.schema().unwrap(), scan().schema().unwrap());
        assert!(!plan.resolved(), "named dims are unresolved");
    }

    #[test]
    fn left_outer_join_makes_right_nullable() {
        let plan = LogicalPlan::Join {
            left: Arc::new(scan()),
            right: Arc::new(LogicalPlan::SubqueryAlias {
                alias: "u".into(),
                input: Arc::new(scan()),
            }),
            join_type: JoinType::LeftOuter,
            condition: JoinCondition::None,
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.len(), 4);
        assert!(!s.field(0).nullable());
        assert!(s.field(2).nullable(), "right-side a becomes nullable");
        assert_eq!(s.field(2).qualifier(), Some("u"));
    }

    #[test]
    fn anti_join_schema_is_left_only() {
        let plan = LogicalPlan::Join {
            left: Arc::new(scan()),
            right: Arc::new(scan()),
            join_type: JoinType::LeftAnti,
            condition: JoinCondition::None,
        };
        assert_eq!(plan.schema().unwrap().len(), 2);
    }

    #[test]
    fn unresolved_relation_has_no_schema() {
        let plan = LogicalPlan::UnresolvedRelation { name: "x".into() };
        assert!(plan.schema().is_err());
        assert!(!plan.resolved());
    }

    #[test]
    fn transform_up_replaces_relations() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::lit(true),
            input: Arc::new(LogicalPlan::UnresolvedRelation { name: "t".into() }),
        };
        let rewritten = plan
            .transform_up(&mut |node| {
                Ok(match node {
                    LogicalPlan::UnresolvedRelation { .. } => scan(),
                    other => other,
                })
            })
            .unwrap();
        assert!(matches!(
            rewritten.children()[0].as_ref(),
            LogicalPlan::TableScan { .. }
        ));
    }

    #[test]
    fn map_expressions_rewrites_predicate() {
        let plan = LogicalPlan::Filter {
            predicate: Expr::Column(Column::new("a")),
            input: Arc::new(scan()),
        };
        let rewritten = plan
            .map_expressions(&mut |e| {
                Ok(match e {
                    Expr::Column(_) => Expr::lit(false),
                    other => other,
                })
            })
            .unwrap();
        match rewritten {
            LogicalPlan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::lit(false));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn values_schema_and_display() {
        let plan = LogicalPlan::Values {
            schema: Schema::new(vec![Field::new("x", DataType::Int64, false)]).into_ref(),
            rows: Arc::new(vec![Row::new(vec![Value::Int64(1)])]),
        };
        assert!(plan.resolved());
        assert!(plan.node_description().contains("1 rows"));
    }

    #[test]
    fn display_indent_shape() {
        let plan = LogicalPlan::Limit {
            n: 10,
            input: Arc::new(LogicalPlan::Filter {
                predicate: Expr::lit(true),
                input: Arc::new(scan()),
            }),
        };
        let display = plan.display_indent();
        let lines: Vec<&str> = display.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].starts_with("  Filter"));
        assert!(lines[2].starts_with("    TableScan"));
    }

    #[test]
    fn aggregate_schema_is_result_exprs() {
        use crate::expr::AggregateFunction;
        let group_col = Expr::BoundColumn(crate::expr::BoundColumn {
            index: 0,
            field: Field::qualified("t", "a", DataType::Int64, false),
        });
        let plan = LogicalPlan::Aggregate {
            group_exprs: vec![group_col.clone()],
            aggr_exprs: vec![
                group_col,
                Expr::Aggregate {
                    func: AggregateFunction::Count,
                    arg: None,
                },
            ],
            input: Arc::new(scan()),
        };
        let s = plan.schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).name(), "a");
        assert_eq!(s.field(1).name(), "count(*)");
        assert_eq!(s.field(1).data_type(), DataType::Int64);
    }

    #[test]
    fn join_type_properties() {
        assert!(JoinType::LeftOuter.preserves_left());
        assert!(!JoinType::Inner.preserves_left());
        assert!(!JoinType::LeftAnti.emits_right());
        assert!(JoinType::Cross.emits_right());
    }
}
