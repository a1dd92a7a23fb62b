#![warn(missing_docs)]

//! # sparkline-analyzer
//!
//! The analyzer resolves unresolved logical plans against a catalog: table
//! names become scans, named columns become bound positions, wildcards are
//! expanded, `USING` joins are desugared, and — the paper's extensions —
//! skyline dimensions are resolved even when they reference columns missing
//! from the projection (Listing 6) or aggregates of an `Aggregate` node
//! below (Listing 7), including through a `HAVING` filter and through
//! premature projections (Appendix B, Listings 9/10).
//!
//! Rules run to fixpoint like Catalyst's `resolveOperatorsUp` batches; the
//! final plan is validated (all names bound, expressions well-typed,
//! aggregate placement legal).

pub mod resolver;
pub mod rules;
pub mod validate;

use std::sync::Arc;

use sparkline_common::{Error, Result, Schema};
use sparkline_plan::{
    conjoin, BoundColumn, CatalogProvider, Expr, JoinCondition, LogicalPlan, SkylineDimension,
    SortExpr,
};

use resolver::{expand_wildcards, resolve_expr, Scope};
use rules::{
    add_missing_columns, resolve_exprs_against_aggregate, restore_projection, AggregateResolution,
};

/// Maximum fixpoint iterations before giving up (Catalyst uses 100).
const MAX_ITERATIONS: usize = 50;

/// The plan analyzer. Cheap to construct; borrows the catalog.
pub struct Analyzer<'a> {
    catalog: &'a dyn CatalogProvider,
}

impl<'a> Analyzer<'a> {
    /// Create an analyzer over a catalog.
    pub fn new(catalog: &'a dyn CatalogProvider) -> Self {
        Analyzer { catalog }
    }

    /// Resolve and validate a plan. An already-resolved plan (the output
    /// of an earlier analysis, or one built from resolved nodes only) is
    /// validated without another resolution pass: resolution never
    /// re-binds a table scan or a bound expression, so the pass would be
    /// the identity.
    pub fn analyze(&self, plan: &LogicalPlan) -> Result<LogicalPlan> {
        if plan.resolved() {
            validate::validate(plan)?;
            return Ok(plan.clone());
        }
        let mut current = plan.clone();
        for _ in 0..MAX_ITERATIONS {
            let next = self.resolve(&current, None)?;
            if next == current {
                break;
            }
            current = next;
        }
        validate::validate(&current)?;
        Ok(current)
    }

    /// One bottom-up resolution pass. `outer` is the enclosing query's
    /// input schema when resolving a correlated subquery.
    fn resolve(&self, plan: &LogicalPlan, outer: Option<&Schema>) -> Result<LogicalPlan> {
        let children: Vec<Arc<LogicalPlan>> = plan
            .children()
            .iter()
            .map(|c| self.resolve(c, outer).map(Arc::new))
            .collect::<Result<_>>()?;
        let node = plan.with_new_children(children);
        self.resolve_node(node, outer)
    }

    fn resolve_node(&self, plan: LogicalPlan, outer: Option<&Schema>) -> Result<LogicalPlan> {
        match plan {
            LogicalPlan::UnresolvedRelation { name } => {
                let schema = self.catalog.table_schema(&name).ok_or_else(|| {
                    Error::analysis(format!("table '{name}' not found in the catalog"))
                })?;
                // Qualify the table's columns with the name as written so
                // `name.column` references resolve.
                Ok(LogicalPlan::TableScan {
                    schema: schema.with_qualifier(&name).into_ref(),
                    name,
                })
            }

            LogicalPlan::Projection { exprs, input } => {
                if !input.resolved() || exprs.iter().all(|e| e.resolved()) {
                    return Ok(LogicalPlan::Projection { exprs, input });
                }
                let input_schema = input.schema()?;
                let exprs = expand_wildcards(exprs, &input_schema)?;
                let scope = Scope::with_outer(&input_schema, outer);
                let exprs = exprs
                    .into_iter()
                    .map(|e| resolve_expr(e, &scope))
                    .collect::<Result<_>>()?;
                Ok(LogicalPlan::Projection { exprs, input })
            }

            LogicalPlan::Filter { predicate, input } => {
                if !input.resolved() {
                    return Ok(LogicalPlan::Filter { predicate, input });
                }
                let input_schema = input.schema()?;
                // Resolve correlated EXISTS subqueries: the subquery sees
                // this filter's input as its outer scope.
                let predicate = predicate.transform_up(&mut |e| match e {
                    Expr::Exists { subquery, negated } if !subquery.resolved() => {
                        let resolved = self.resolve(&subquery, Some(&input_schema))?;
                        Ok(Expr::Exists {
                            subquery: Arc::new(resolved),
                            negated,
                        })
                    }
                    other => Ok(other),
                })?;
                let scope = Scope::with_outer(&input_schema, outer);
                let predicate = resolve_expr(predicate, &scope)?;

                // HAVING over an Aggregate: propagate aggregate calls into
                // the Aggregate node (Listing 7 machinery).
                if predicate.contains_aggregate() {
                    if let LogicalPlan::Aggregate {
                        group_exprs,
                        aggr_exprs,
                        input: agg_input,
                    } = input.as_ref()
                    {
                        let original_schema = input.schema()?;
                        let AggregateResolution {
                            mut exprs,
                            new_result_exprs,
                            grew,
                        } = resolve_exprs_against_aggregate(
                            vec![predicate],
                            group_exprs,
                            aggr_exprs,
                            agg_input.schema()?.as_ref(),
                            &original_schema,
                            outer,
                        )?;
                        let new_agg = LogicalPlan::Aggregate {
                            group_exprs: group_exprs.clone(),
                            aggr_exprs: new_result_exprs,
                            input: Arc::clone(agg_input),
                        };
                        let filtered = LogicalPlan::Filter {
                            predicate: exprs.remove(0),
                            input: Arc::new(new_agg),
                        };
                        return Ok(if grew {
                            restore_projection(filtered, &original_schema)
                        } else {
                            filtered
                        });
                    }
                }
                Ok(LogicalPlan::Filter { predicate, input })
            }

            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                input,
            } => {
                if !input.resolved() {
                    return Ok(LogicalPlan::Aggregate {
                        group_exprs,
                        aggr_exprs,
                        input,
                    });
                }
                let input_schema = input.schema()?;
                let scope = Scope::with_outer(&input_schema, outer);
                let group_exprs = group_exprs
                    .into_iter()
                    .map(|e| resolve_expr(e, &scope))
                    .collect::<Result<_>>()?;
                let aggr_exprs = aggr_exprs
                    .into_iter()
                    .map(|e| resolve_expr(e, &scope))
                    .collect::<Result<_>>()?;
                Ok(LogicalPlan::Aggregate {
                    group_exprs,
                    aggr_exprs,
                    input,
                })
            }

            LogicalPlan::Sort { exprs, input } => {
                if !input.resolved() {
                    return Ok(LogicalPlan::Sort { exprs, input });
                }
                let input_schema = input.schema()?;
                let scope = Scope::with_outer(&input_schema, outer);
                let exprs: Vec<SortExpr> = exprs
                    .into_iter()
                    .map(|s| {
                        Ok(SortExpr {
                            expr: resolve_expr(s.expr, &scope)?,
                            asc: s.asc,
                            nulls_first: s.nulls_first,
                        })
                    })
                    .collect::<Result<_>>()?;
                let needs_help = exprs
                    .iter()
                    .any(|s| !s.expr.resolved() || s.expr.contains_aggregate());
                if !needs_help {
                    return Ok(LogicalPlan::Sort { exprs, input });
                }
                let keys: Vec<Expr> = exprs.iter().map(|s| s.expr.clone()).collect();
                let spec: Vec<(bool, bool)> =
                    exprs.iter().map(|s| (s.asc, s.nulls_first)).collect();
                let rebuild =
                    move |new_keys: Vec<Expr>, new_input: LogicalPlan| LogicalPlan::Sort {
                        exprs: new_keys
                            .into_iter()
                            .zip(spec.iter())
                            .map(|(expr, &(asc, nulls_first))| SortExpr {
                                expr,
                                asc,
                                nulls_first,
                            })
                            .collect(),
                        input: Arc::new(new_input),
                    };
                self.resolve_operator_exprs(keys, &input, outer, rebuild)
                    .map(|resolved| resolved.unwrap_or(LogicalPlan::Sort { exprs, input }))
            }

            LogicalPlan::Skyline {
                distinct,
                complete,
                dims,
                input,
            } => {
                if !input.resolved() {
                    return Ok(LogicalPlan::Skyline {
                        distinct,
                        complete,
                        dims,
                        input,
                    });
                }
                let input_schema = input.schema()?;
                let scope = Scope::with_outer(&input_schema, outer);
                let dims: Vec<SkylineDimension> = dims
                    .into_iter()
                    .map(|d| {
                        Ok(SkylineDimension {
                            child: resolve_expr(d.child, &scope)?,
                            ty: d.ty,
                        })
                    })
                    .collect::<Result<_>>()?;
                let needs_help = dims
                    .iter()
                    .any(|d| !d.child.resolved() || d.child.contains_aggregate());
                if !needs_help {
                    return Ok(LogicalPlan::Skyline {
                        distinct,
                        complete,
                        dims,
                        input,
                    });
                }
                let children: Vec<Expr> = dims.iter().map(|d| d.child.clone()).collect();
                let types: Vec<sparkline_common::SkylineType> = dims.iter().map(|d| d.ty).collect();
                let rebuild =
                    move |new_children: Vec<Expr>, new_input: LogicalPlan| LogicalPlan::Skyline {
                        distinct,
                        complete,
                        dims: new_children
                            .into_iter()
                            .zip(types.iter())
                            .map(|(child, &ty)| SkylineDimension { child, ty })
                            .collect(),
                        input: Arc::new(new_input),
                    };
                self.resolve_operator_exprs(children, &input, outer, rebuild)
                    .map(|resolved| {
                        resolved.unwrap_or(LogicalPlan::Skyline {
                            distinct,
                            complete,
                            dims,
                            input,
                        })
                    })
            }

            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => {
                if !left.resolved() || !right.resolved() {
                    return Ok(LogicalPlan::Join {
                        left,
                        right,
                        join_type,
                        condition,
                    });
                }
                match condition {
                    JoinCondition::Using(cols) => self.desugar_using(left, right, join_type, cols),
                    JoinCondition::On(e) => {
                        let combined = left.schema()?.join(right.schema()?.as_ref());
                        let scope = Scope::with_outer(&combined, outer);
                        let e = resolve_expr(e, &scope)?;
                        Ok(LogicalPlan::Join {
                            left,
                            right,
                            join_type,
                            condition: JoinCondition::On(e),
                        })
                    }
                    JoinCondition::None => Ok(LogicalPlan::Join {
                        left,
                        right,
                        join_type,
                        condition: JoinCondition::None,
                    }),
                }
            }

            LogicalPlan::MinMaxFilter {
                expr,
                direction,
                distinct,
                complete,
                input,
            } => {
                let expr = if input.resolved() {
                    let input_schema = input.schema()?;
                    resolve_expr(expr, &Scope::with_outer(&input_schema, outer))?
                } else {
                    expr
                };
                Ok(LogicalPlan::MinMaxFilter {
                    expr,
                    direction,
                    distinct,
                    complete,
                    input,
                })
            }

            other => Ok(other),
        }
    }

    /// Shared machinery for `Sort` and `Skyline` whose expressions did not
    /// resolve against the child schema: aggregate propagation (Listings
    /// 7/9/10) and missing-reference injection (Listing 6). Returns
    /// `Ok(None)` when no strategy applies (the caller keeps the operator
    /// unchanged and validation reports the problem).
    fn resolve_operator_exprs(
        &self,
        exprs: Vec<Expr>,
        input: &Arc<LogicalPlan>,
        outer: Option<&Schema>,
        rebuild: impl FnOnce(Vec<Expr>, LogicalPlan) -> LogicalPlan,
    ) -> Result<Option<LogicalPlan>> {
        // Case 1: an Aggregate at or below the child — reachable through a
        // HAVING Filter and/or a premature Projection (Appendix B). Shapes:
        //   Aggregate | Filter(Aggregate) | Projection(Aggregate)
        //   | Projection(Filter(Aggregate))
        if let Some(shape) = AggregateShape::locate(input) {
            let agg_input_schema = shape.agg_input.schema()?;
            let agg_output_schema = LogicalPlan::Aggregate {
                group_exprs: shape.group_exprs.clone(),
                aggr_exprs: shape.result_exprs.clone(),
                input: Arc::clone(&shape.agg_input),
            }
            .schema()?;
            let AggregateResolution {
                exprs: new_exprs,
                new_result_exprs,
                grew,
            } = resolve_exprs_against_aggregate(
                exprs,
                &shape.group_exprs,
                &shape.result_exprs,
                &agg_input_schema,
                &agg_output_schema,
                outer,
            )?;
            if new_exprs
                .iter()
                .any(|e| !e.resolved() || e.contains_aggregate())
            {
                return Ok(None);
            }
            let mut inner = LogicalPlan::Aggregate {
                group_exprs: shape.group_exprs,
                aggr_exprs: new_result_exprs,
                input: shape.agg_input,
            };
            if let Some(pred) = shape.filter_predicate {
                inner = LogicalPlan::Filter {
                    predicate: pred,
                    input: Arc::new(inner),
                };
            }
            let op = rebuild(new_exprs, inner);
            // Restore the original output: either re-attach the premature
            // projection above the operator (Listing 9's restructuring) or
            // project the original aggregate columns back out.
            let result = if let Some(proj) = shape.projection_exprs {
                LogicalPlan::Projection {
                    exprs: proj,
                    input: Arc::new(op),
                }
            } else if grew {
                restore_projection(op, &agg_output_schema)
            } else {
                op
            };
            return Ok(Some(result));
        }

        // Case 2: child is a Projection — widen it (Listing 6).
        if let LogicalPlan::Projection {
            exprs: proj_exprs,
            input: proj_input,
        } = input.as_ref()
        {
            let proj_input_schema = proj_input.schema()?;
            let proj_output_schema = input.schema()?;
            if let Some((new_exprs, new_proj)) =
                add_missing_columns(exprs, proj_exprs, &proj_input_schema, &proj_output_schema)?
            {
                if new_exprs.iter().any(|e| !e.resolved()) {
                    return Ok(None);
                }
                let widened = LogicalPlan::Projection {
                    exprs: new_proj,
                    input: Arc::clone(proj_input),
                };
                let op = rebuild(new_exprs, widened);
                return Ok(Some(restore_projection(op, &proj_output_schema)));
            }
        }
        Ok(None)
    }

    /// Desugar `USING (cols)` into an equi-`ON` join plus a projection that
    /// keeps the left copy of each using column (so references qualified by
    /// the left relation keep working).
    fn desugar_using(
        &self,
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        join_type: sparkline_plan::JoinType,
        cols: Vec<String>,
    ) -> Result<LogicalPlan> {
        let ls = left.schema()?;
        let rs = right.schema()?;
        let mut equalities = Vec::new();
        let mut drop_right = vec![false; rs.len()];
        for col in &cols {
            let li = ls.index_of(None, col)?;
            let ri = rs.index_of(None, col)?;
            drop_right[ri] = true;
            let eq = Expr::BoundColumn(BoundColumn {
                index: li,
                field: ls.field(li).clone(),
            })
            .eq(Expr::BoundColumn(BoundColumn {
                index: ls.len() + ri,
                field: rs.field(ri).clone(),
            }));
            equalities.push(eq);
        }
        let join = LogicalPlan::Join {
            left,
            right,
            join_type,
            condition: JoinCondition::On(
                conjoin(equalities)
                    .ok_or_else(|| Error::analysis("USING requires at least one column"))?,
            ),
        };
        if !join_type.emits_right() {
            return Ok(join);
        }
        // Keep all left columns plus the right columns that are not merged.
        let join_schema = join.schema()?;
        let exprs: Vec<Expr> = (0..join_schema.len())
            .filter(|&i| i < ls.len() || !drop_right[i - ls.len()])
            .map(|i| {
                Expr::BoundColumn(BoundColumn {
                    index: i,
                    field: join_schema.field(i).clone(),
                })
            })
            .collect();
        Ok(LogicalPlan::Projection {
            exprs,
            input: Arc::new(join),
        })
    }
}

/// The `Aggregate` reachable below a `Sort`/`Skyline`, together with the
/// intervening nodes that must be rebuilt (paper Listings 7/9/10).
struct AggregateShape {
    group_exprs: Vec<Expr>,
    result_exprs: Vec<Expr>,
    agg_input: Arc<LogicalPlan>,
    /// Predicate of a `HAVING` filter between the operator and the
    /// aggregate, if any.
    filter_predicate: Option<Expr>,
    /// A premature projection above the aggregate (Appendix B); re-attached
    /// *above* the operator after resolution.
    projection_exprs: Option<Vec<Expr>>,
}

impl AggregateShape {
    fn locate(input: &Arc<LogicalPlan>) -> Option<AggregateShape> {
        // Direct aggregate.
        if let Some(shape) = Self::direct(input) {
            return Some(shape);
        }
        // Through a HAVING filter.
        if let LogicalPlan::Filter {
            predicate,
            input: f_input,
        } = input.as_ref()
        {
            if let Some(mut shape) = Self::direct(f_input) {
                shape.filter_predicate = Some(predicate.clone());
                return Some(shape);
            }
            return None;
        }
        // Through a premature projection (possibly over a filter) —
        // Appendix B's problematic shape.
        if let LogicalPlan::Projection {
            exprs,
            input: p_input,
        } = input.as_ref()
        {
            let inner = if let LogicalPlan::Filter {
                predicate,
                input: f_input,
            } = p_input.as_ref()
            {
                Self::direct(f_input).map(|mut s| {
                    s.filter_predicate = Some(predicate.clone());
                    s
                })
            } else {
                Self::direct(p_input)
            };
            if let Some(mut shape) = inner {
                shape.projection_exprs = Some(exprs.clone());
                return Some(shape);
            }
        }
        None
    }

    fn direct(input: &Arc<LogicalPlan>) -> Option<AggregateShape> {
        if let LogicalPlan::Aggregate {
            group_exprs,
            aggr_exprs,
            input: agg_input,
        } = input.as_ref()
        {
            Some(AggregateShape {
                group_exprs: group_exprs.clone(),
                result_exprs: aggr_exprs.clone(),
                agg_input: Arc::clone(agg_input),
                filter_predicate: None,
                projection_exprs: None,
            })
        } else {
            None
        }
    }
}
