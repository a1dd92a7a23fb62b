//! The physical planner: optimized logical plans → executable operator
//! trees, including the paper's skyline algorithm selection (Listing 8).

use std::sync::Arc;

use sparkline_common::{
    Algorithm, DataType, Error, MemTable, Result, Row, Schema, SchemaRef, SessionConfig,
    SkylineDim, SkylineSpec,
};
use sparkline_plan::{
    conjoin, split_conjuncts, AggregateFunction, BinaryOp, BoundColumn, Expr, JoinCondition,
    JoinType, LogicalPlan, SkylineDimension,
};

use crate::aggregate::AggCall;
use crate::exchange::ExchangeExec;
use crate::join::{HashJoinExec, NestedLoopJoinExec};
use crate::skyline_exec::{GlobalSkylineExec, LocalSkylineExec, MinMaxFilterExec};
use crate::{
    basic::{DistinctExec, FilterExec, LimitExec, ProjectExec, SortExec},
    scan::ScanExec,
    ExecutionPlan,
};

/// Source of table *data* for scans (the session catalog implements this).
pub trait ExecTableSource: Send + Sync {
    /// A snapshot of a registered in-memory table, if it exists.
    fn mem_table(&self, name: &str) -> Option<MemTable>;

    /// The disk-resident table registered under `name`, if any. Disk
    /// tables take precedence over in-memory rows when both exist.
    fn disk_table(&self, _name: &str) -> Option<Arc<sparkline_storage::DiskTable>> {
        None
    }
}

/// Translates logical plans into physical operator trees.
pub struct PhysicalPlanner<'a> {
    source: &'a dyn ExecTableSource,
    algorithm: Algorithm,
}

impl<'a> PhysicalPlanner<'a> {
    /// Planner over a data source, selecting skyline algorithms by
    /// Listing 8 ([`Algorithm::Auto`]). No configuration field selects a
    /// physical operator, so `config` is not read; the parameter stays
    /// only because the benchmark's traced pipeline
    /// (`benchmark/src/pipeline.rs`) passes it, and a `[benchmark]` change
    /// deletes it.
    pub fn new(_config: &'a SessionConfig, source: &'a dyn ExecTableSource) -> Self {
        PhysicalPlanner {
            source,
            algorithm: Algorithm::Auto,
        }
    }

    /// Plan every skyline operator with `algorithm` (builder-style).
    /// [`Algorithm::Reference`] plans like `Auto`: its rewrite runs before
    /// optimization and leaves no skyline node to plan.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Create the physical plan for a resolved, optimized logical plan.
    pub fn create(&self, plan: &LogicalPlan) -> Result<Arc<dyn ExecutionPlan>> {
        Ok(match plan {
            LogicalPlan::UnresolvedRelation { name } => {
                return Err(Error::internal(format!(
                    "cannot execute unresolved relation '{name}'"
                )))
            }
            LogicalPlan::TableScan { name, schema } => {
                if let Some(table) = self.source.disk_table(name) {
                    return Ok(Arc::new(self.disk_scan(name, table, schema, None)));
                }
                Arc::new(self.mem_scan(name, schema)?)
            }
            LogicalPlan::Values { schema, rows } => Arc::new(ScanExec::from_rows(
                "values",
                rows.as_ref().clone(),
                Arc::clone(schema),
            )?),
            LogicalPlan::Projection { exprs, input } => {
                let child = self.create(input)?;
                Arc::new(ProjectExec::new(exprs.clone(), plan.schema()?, child))
            }
            LogicalPlan::Filter { predicate, input } => {
                // A filter directly on a table scan, in memory or on disk,
                // is the scan's own when the whole predicate is an AND of
                // exactly comparable conjuncts: the scan evaluates it on
                // its column buffers and no `FilterExec` is planned. Any
                // other predicate keeps one above the scan for the exact
                // cut; a disk scan still takes its prunable conjuncts as
                // static min/max bounds.
                if let LogicalPlan::TableScan { name, schema } = input.as_ref() {
                    let (scan, pushed): (Arc<dyn ExecutionPlan>, bool) =
                        match self.source.disk_table(name) {
                            Some(table) => {
                                let scan = self.disk_scan(name, table, schema, Some(predicate));
                                let pushed = scan.evaluates_filter();
                                (Arc::new(scan), pushed)
                            }
                            None => {
                                let scan = self.mem_scan(name, schema)?.with_filter(predicate);
                                let pushed = scan.evaluates_filter();
                                (Arc::new(scan), pushed)
                            }
                        };
                    return Ok(if pushed {
                        scan
                    } else {
                        Arc::new(FilterExec::new(predicate.clone(), scan))
                    });
                }
                Arc::new(FilterExec::new(predicate.clone(), self.create(input)?))
            }
            LogicalPlan::Aggregate {
                group_exprs,
                aggr_exprs,
                input,
            } => {
                let child = self.create(input)?;
                let input_schema = input.schema()?;
                let (calls, result_exprs) =
                    compile_aggregate(group_exprs, aggr_exprs, &input_schema)?;
                Arc::new(crate::aggregate::HashAggregateExec::new(
                    group_exprs.clone(),
                    calls,
                    result_exprs,
                    plan.schema()?,
                    child,
                ))
            }
            LogicalPlan::Sort { exprs, input } => {
                let child = self.create(input)?;
                Arc::new(SortExec::new(exprs.clone(), child))
            }
            LogicalPlan::Limit { n, input } => {
                let child = self.create(input)?;
                Arc::new(LimitExec::new(*n, child))
            }
            LogicalPlan::Distinct { input } => {
                let child = self.create(input)?;
                Arc::new(DistinctExec::new(child))
            }
            LogicalPlan::SubqueryAlias { input, .. } => self.create(input)?,
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
            } => self.plan_join(left, right, *join_type, condition)?,
            LogicalPlan::Skyline {
                distinct,
                complete,
                dims,
                input,
            } => self.plan_skyline(*distinct, *complete, dims, input)?,
            LogicalPlan::MinMaxFilter {
                expr,
                direction,
                distinct,
                complete,
                input,
            } => Arc::new(MinMaxFilterExec::new(
                expr.clone(),
                *direction,
                *distinct,
                *complete,
                self.create(input)?,
            )),
        })
    }

    /// A [`ScanExec`] over the in-memory table registered as `name`.
    fn mem_scan(&self, name: &str, schema: &SchemaRef) -> Result<ScanExec> {
        let table = (self.source.mem_table(name))
            .ok_or_else(|| Error::plan(format!("no data registered for table '{name}'")))?;
        Ok(ScanExec::new(name, table, Arc::clone(schema)))
    }

    /// Build a [`DiskScanExec`] over an opened table, taking over the
    /// filter that sits directly on the scan, if any.
    fn disk_scan(
        &self,
        name: &str,
        table: Arc<sparkline_storage::DiskTable>,
        schema: &SchemaRef,
        filter: Option<&Expr>,
    ) -> crate::scan_disk::DiskScanExec {
        let scan = crate::scan_disk::DiskScanExec::new(name.to_string(), table, Arc::clone(schema));
        match filter {
            Some(predicate) => scan.with_filter(predicate),
            None => scan,
        }
    }

    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        join_type: JoinType,
        condition: &JoinCondition,
    ) -> Result<Arc<dyn ExecutionPlan>> {
        let left_exec = self.create(left)?;
        let right_exec = self.create(right)?;
        let left_len = left.schema()?.len();
        let on = match condition {
            JoinCondition::On(e) => Some(e.clone()),
            JoinCondition::None => None,
            JoinCondition::Using(_) => return Err(Error::internal("USING survived analysis")),
        };
        // Equality pairs enable a hash join for inner/left-outer joins.
        if matches!(join_type, JoinType::Inner | JoinType::LeftOuter) {
            if let Some(on) = &on {
                let (keys, residual) = split_equi_condition(on, left_len);
                if !keys.is_empty() {
                    return Ok(Arc::new(HashJoinExec::new(
                        left_exec, right_exec, keys, residual, join_type,
                    )));
                }
            }
        }
        Ok(Arc::new(NestedLoopJoinExec::new(
            left_exec, right_exec, on, join_type,
        )))
    }

    /// The paper's Listing 8: select skyline nodes for the physical plan.
    fn plan_skyline(
        &self,
        distinct: bool,
        complete: bool,
        dims: &[SkylineDimension],
        input: &LogicalPlan,
    ) -> Result<Arc<dyn ExecutionPlan>> {
        let mut input_exec = self.create(input)?;
        let input_schema = input.schema()?;

        // Resolve dimensions to row positions. Computed dimensions (e.g.
        // `price / accommodates MIN`) are appended as extra columns by a
        // projection and stripped again afterwards.
        let base_len = input_schema.len();
        let mut extra_exprs: Vec<Expr> = Vec::new();
        let mut resolved: Vec<SkylineDim> = Vec::new();
        let mut skyline_nullable = false;
        for d in dims {
            let (_, nullable) = d.child.data_type_and_nullable(&input_schema)?;
            skyline_nullable |= nullable;
            match &d.child {
                Expr::BoundColumn(c) => resolved.push(SkylineDim::new(c.index, d.ty)),
                computed => {
                    let index = base_len + extra_exprs.len();
                    extra_exprs.push(computed.clone());
                    resolved.push(SkylineDim::new(index, d.ty));
                }
            }
        }
        let needs_wrap = !extra_exprs.is_empty();
        if needs_wrap {
            let mut exprs: Vec<Expr> = (0..base_len)
                .map(|i| {
                    Expr::BoundColumn(BoundColumn {
                        index: i,
                        field: input_schema.field(i).clone(),
                    })
                })
                .collect();
            let mut fields = input_schema.fields().to_vec();
            for (k, e) in extra_exprs.iter().enumerate() {
                fields.push(
                    e.to_field(&input_schema)?
                        .with_name(format!("__skyline_dim_{k}")),
                );
                exprs.push(e.clone());
            }
            input_exec = Arc::new(ProjectExec::new(
                exprs,
                Schema::new(fields).into_ref(),
                input_exec,
            ));
        }

        let spec = SkylineSpec {
            dims: resolved,
            distinct,
        };

        // Listing 8, line 2: the complete algorithm may run when the user
        // asserted COMPLETE or no skyline dimension is nullable. A forced
        // algorithm (the harness's algorithm series) overrides that.
        let use_complete = match self.algorithm {
            Algorithm::Auto | Algorithm::Reference => complete || !skyline_nullable,
            Algorithm::DistributedComplete | Algorithm::NonDistributedComplete => true,
            Algorithm::DistributedIncomplete => false,
        };

        let global_input: Arc<dyn ExecutionPlan> = if use_complete {
            // Dominance-based data skipping: a disk scan reachable through
            // value-preserving operators (the walk stops at projections,
            // which change the column space — computed dimensions
            // included) gets the skyline of its footer sample, narrowed to
            // the rows the filters on the way pass, and of the corner
            // points of the blocks whose rows all pass. A block whose best
            // corner one of those points strictly dominates is skipped
            // unread — sound because each point is a real input row or
            // weakly dominated by one, and the complete relation is
            // transitive (see `sparkline_storage`'s crate docs). The incomplete relation is not transitive, so
            // its plans never get the gate.
            // The gate depends on the table and this input alone, so it is
            // built once per input and shared by every later plan.
            if let Some((slot, sample)) = crate::find_dominance_skip_slot(input_exec.as_ref()) {
                if let Some(skip) = crate::scan_disk::DominanceSkip::cached(&spec.dims, sample) {
                    let _ = slot.set(skip);
                }
            }
            // The local phase reads its input's own partitions (paper
            // §2/§5.6), and the pairwise merge consumes the local
            // skylines' distribution directly, fanning its tasks over the
            // executor pool. Only a non-distributed plan still needs the
            // `AllTuples` gather the paper describes: without a local
            // phase the single pass must see every tuple.
            if self.algorithm != Algorithm::NonDistributedComplete {
                Arc::new(LocalSkylineExec::new(spec.clone(), false, input_exec))
            } else {
                Arc::new(ExchangeExec::single(input_exec))
            }
        } else {
            // §5.7 without its null-bitmap exchange: one local skyline per
            // bitmap class of each scan partition, and the global merge
            // over their class runs — nothing moves before the local phase
            // (soundness in `sparkline_skyline::incomplete`).
            Arc::new(LocalSkylineExec::new(spec.clone(), true, input_exec))
        };
        let mut result: Arc<dyn ExecutionPlan> =
            Arc::new(GlobalSkylineExec::new(spec, !use_complete, global_input));

        if needs_wrap {
            let exprs: Vec<Expr> = (0..base_len)
                .map(|i| {
                    Expr::BoundColumn(BoundColumn {
                        index: i,
                        field: input_schema.field(i).clone(),
                    })
                })
                .collect();
            result = Arc::new(ProjectExec::new(exprs, Arc::clone(&input_schema), result));
        }
        Ok(result)
    }
}

/// Split a join condition into hashable equality key pairs and a residual
/// predicate.
fn split_equi_condition(on: &Expr, left_len: usize) -> (Vec<(usize, usize)>, Option<Expr>) {
    let mut keys = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in split_conjuncts(on) {
        if let Expr::BinaryOp {
            left,
            op: BinaryOp::Eq,
            right,
        } = &c
        {
            if let (Expr::BoundColumn(a), Expr::BoundColumn(b)) = (left.as_ref(), right.as_ref()) {
                if a.index < left_len && b.index >= left_len {
                    keys.push((a.index, b.index - left_len));
                    continue;
                }
                if b.index < left_len && a.index >= left_len {
                    keys.push((b.index, a.index - left_len));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (keys, conjoin(residual))
}

/// Compile an `Aggregate`'s result expressions: extract the distinct
/// aggregate calls and rewrite each result expression against the internal
/// row layout `[group values..., aggregate values...]`.
pub fn compile_aggregate(
    group_exprs: &[Expr],
    result_exprs: &[Expr],
    input_schema: &Schema,
) -> Result<(Vec<AggCall>, Vec<Expr>)> {
    fn strip(e: &Expr) -> &Expr {
        match e {
            Expr::Alias { expr, .. } => strip(expr),
            other => other,
        }
    }
    let group_len = group_exprs.len();
    let mut calls: Vec<AggCall> = Vec::new();
    let mut rewritten = Vec::with_capacity(result_exprs.len());
    for expr in result_exprs {
        let input_schema = input_schema.clone();
        let group_fields: Vec<sparkline_common::Field> = group_exprs
            .iter()
            .map(|g| g.to_field(&input_schema))
            .collect::<Result<_>>()?;
        let new_expr = expr.clone().transform_down(&mut |node| {
            // A subtree equal to a group expression becomes a reference to
            // the group-key slot.
            if let Some(i) = group_exprs.iter().position(|g| strip(g) == strip(&node)) {
                return Ok(Expr::BoundColumn(BoundColumn {
                    index: i,
                    field: group_fields[i].clone(),
                }));
            }
            // An aggregate call becomes a reference to its accumulator slot.
            if let Expr::Aggregate { func, arg } = &node {
                let arg_expr = arg.as_deref().cloned();
                let input_type = match &arg_expr {
                    Some(a) => a.data_type_and_nullable(&input_schema)?.0,
                    None => DataType::Int64,
                };
                let position = calls
                    .iter()
                    .position(|c| c.func == *func && c.arg == arg_expr)
                    .unwrap_or_else(|| {
                        calls.push(AggCall {
                            func: *func,
                            arg: arg_expr.clone(),
                            input_type,
                        });
                        calls.len() - 1
                    });
                let out_type = func.output_type(input_type);
                return Ok(Expr::BoundColumn(BoundColumn {
                    index: group_len + position,
                    field: sparkline_common::Field::new(
                        node.output_name(),
                        out_type,
                        !matches!(func, AggregateFunction::Count),
                    ),
                }));
            }
            Ok(node)
        })?;
        rewritten.push(new_expr);
    }
    Ok((calls, rewritten))
}

/// Helper for callers (core, tests): execute a physical plan and gather
/// all rows.
pub fn collect(
    plan: &Arc<dyn ExecutionPlan>,
    ctx: &sparkline_exec::TaskContext,
) -> Result<Vec<Row>> {
    let parts = plan.execute(ctx)?;
    ctx.metrics.rows_output.store(
        sparkline_exec::partition::total_rows(&parts) as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
    Ok(sparkline_exec::partition::flatten(parts))
}

/// Schema helper re-exported for `core`.
pub fn output_schema(plan: &LogicalPlan) -> Result<SchemaRef> {
    plan.schema()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::Value;
    use sparkline_exec::TaskContext;
    use std::collections::HashMap;

    struct MapSource(HashMap<String, MemTable>);

    impl ExecTableSource for MapSource {
        fn mem_table(&self, name: &str) -> Option<MemTable> {
            self.0.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    fn hotels_scan() -> (LogicalPlan, MapSource) {
        let schema = Schema::new(vec![
            sparkline_common::Field::qualified("hotels", "price", DataType::Int64, false),
            sparkline_common::Field::qualified("hotels", "rating", DataType::Int64, false),
        ])
        .into_ref();
        let rows: Vec<Row> = [(50, 9), (60, 9), (40, 5), (70, 10), (45, 9)]
            .iter()
            .map(|&(p, r)| Row::new(vec![Value::Int64(p), Value::Int64(r)]))
            .collect();
        let mut tables = HashMap::new();
        tables.insert("hotels".to_string(), MemTable::from_rows(&schema, rows));
        (
            LogicalPlan::TableScan {
                name: "hotels".into(),
                schema,
            },
            MapSource(tables),
        )
    }

    fn dim(
        plan: &LogicalPlan,
        index: usize,
        ty: sparkline_common::SkylineType,
    ) -> SkylineDimension {
        let schema = plan.schema().unwrap();
        SkylineDimension::new(
            Expr::BoundColumn(BoundColumn {
                index,
                field: schema.field(index).clone(),
            }),
            ty,
        )
    }

    #[test]
    fn skyline_plan_selects_complete_nodes_listing_8() {
        use sparkline_common::SkylineType;
        let (scan, source) = hotels_scan();
        let logical = LogicalPlan::Skyline {
            distinct: false,
            complete: false,
            dims: vec![
                dim(&scan, 0, SkylineType::Min),
                dim(&scan, 1, SkylineType::Max),
            ],
            input: Arc::new(scan),
        };
        let config = SessionConfig::default();
        let planner = PhysicalPlanner::new(&config, &source);
        let physical = planner.create(&logical).unwrap();
        let display = crate::display_physical(&physical);
        // Non-nullable dims => complete algorithm even without COMPLETE.
        // The local skylines feed the pairwise merge directly — no
        // `AllTuples` gather between the phases.
        assert!(
            display.contains("GlobalSkylineExec [2 dims, pairwise merge"),
            "{display}"
        );
        assert!(display.contains("LocalSkylineExec"), "{display}");
        assert!(!display.contains("ExchangeExec"), "{display}");
        assert!(!display.contains("incomplete"), "{display}");

        let ctx = TaskContext::new(3);
        let rows = collect(&physical, &ctx).unwrap();
        // Skyline of the hotel data: (40,5) is dominated by nothing? It has
        // min price. (70,10) max rating. (45,9) dominates (50,9)/(60,9).
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn incomplete_strategy_changes_physical_nodes() {
        use sparkline_common::SkylineType;
        let (scan, source) = hotels_scan();
        let logical = LogicalPlan::Skyline {
            distinct: false,
            complete: false,
            dims: vec![
                dim(&scan, 0, SkylineType::Min),
                dim(&scan, 1, SkylineType::Max),
            ],
            input: Arc::new(scan),
        };
        let config = SessionConfig::default();
        let planner =
            PhysicalPlanner::new(&config, &source).with_algorithm(Algorithm::DistributedIncomplete);
        let physical = planner.create(&logical).unwrap();
        let display = crate::display_physical(&physical);
        assert!(
            display.contains("GlobalSkylineExec [2 dims, incomplete, pairwise merge"),
            "{display}"
        );
        // The local phase runs on the scan's partitions: no exchange.
        assert!(
            display.contains("LocalSkylineExec [2 dims, incomplete"),
            "{display}"
        );
        assert!(!display.contains("ExchangeExec"), "{display}");
        // Same answer as the complete plan on complete data.
        let ctx = TaskContext::new(3);
        assert_eq!(collect(&physical, &ctx).unwrap().len(), 3);
    }

    #[test]
    fn non_distributed_strategy_skips_local_phase() {
        use sparkline_common::SkylineType;
        let (scan, source) = hotels_scan();
        let logical = LogicalPlan::Skyline {
            distinct: false,
            complete: true,
            dims: vec![dim(&scan, 0, SkylineType::Min)],
            input: Arc::new(scan),
        };
        let config = SessionConfig::default();
        let planner = PhysicalPlanner::new(&config, &source)
            .with_algorithm(Algorithm::NonDistributedComplete);
        let physical = planner.create(&logical).unwrap();
        let display = crate::display_physical(&physical);
        assert!(!display.contains("LocalSkylineExec"), "{display}");
        assert!(display.contains("GlobalSkylineExec"), "{display}");
        // No local phase, so the single pass must see every tuple: the
        // gather stays.
        assert!(display.contains("ExchangeExec [AllTuples]"), "{display}");
        let ctx = TaskContext::new(3);
        assert_eq!(collect(&physical, &ctx).unwrap().len(), 1);
    }

    /// The physical display of `SKYLINE OF [COMPLETE] d0 t0, d1 t1` over
    /// a two-column scan whose columns are `nullable` or not.
    fn skyline_display(
        algorithm: Algorithm,
        nullable: bool,
        complete: bool,
        types: [sparkline_common::SkylineType; 2],
    ) -> String {
        let scan = LogicalPlan::TableScan {
            name: "t".into(),
            schema: Schema::new(vec![
                sparkline_common::Field::qualified("t", "d0", DataType::Int64, nullable),
                sparkline_common::Field::qualified("t", "d1", DataType::Int64, nullable),
            ])
            .into_ref(),
        };
        let empty = MemTable::new(&scan.schema().unwrap());
        let logical = LogicalPlan::Skyline {
            distinct: false,
            complete,
            dims: vec![dim(&scan, 0, types[0]), dim(&scan, 1, types[1])],
            input: Arc::new(scan),
        };
        let source = MapSource(HashMap::from([("t".to_string(), empty)]));
        let physical = PhysicalPlanner::new(&SessionConfig::default(), &source)
            .with_algorithm(algorithm)
            .create(&logical)
            .unwrap();
        crate::display_physical(&physical)
    }

    /// Listing 8, extended: the algorithm family, the local phase and the
    /// gather, read off the plan.
    #[test]
    fn skyline_selection_shows_in_the_plan() {
        use sparkline_common::{SkylineType, SkylineType::*};
        use Algorithm::*;
        const COMPLETE: &str = "LocalSkylineExec [2 dims, complete";
        const INCOMPLETE: &str = "GlobalSkylineExec [2 dims, incomplete";
        const GATHER: &str = "ExchangeExec [AllTuples]";
        // (case, algorithm, nullable, COMPLETE, dims, present, absent)
        type Case = (
            &'static str,
            Algorithm,
            bool,
            bool,
            [SkylineType; 2],
            &'static [&'static str],
            &'static [&'static str],
        );
        #[rustfmt::skip]
        let cases: Vec<Case> = vec![
            ("auto, non-nullable", Auto, false, false, [Min, Max], &[COMPLETE], &[INCOMPLETE, "ExchangeExec"]),
            ("auto, nullable", Auto, true, false, [Min, Max], &[INCOMPLETE, "LocalSkylineExec [2 dims, incomplete"], &[COMPLETE, "ExchangeExec"]),
            ("COMPLETE over nullable dims", Auto, true, true, [Min, Max], &[COMPLETE], &[INCOMPLETE]),
            ("reference plans like auto", Reference, true, false, [Min, Max], &[INCOMPLETE, "LocalSkylineExec [2 dims, incomplete"], &[COMPLETE, "ExchangeExec"]),
            ("forced incomplete over COMPLETE data", DistributedIncomplete, false, true, [Min, Max], &[INCOMPLETE], &[COMPLETE]),
            ("forced non-distributed over nullable dims", NonDistributedComplete, true, false, [Min, Max], &[GATHER, "GlobalSkylineExec [2 dims, pairwise merge"], &[INCOMPLETE, "LocalSkylineExec"]),
            ("forced distributed complete over nullable dims", DistributedComplete, true, false, [Min, Max], &[COMPLETE], &[INCOMPLETE]),
        ];
        for (case, algorithm, nullable, complete, types, present, absent) in cases {
            let display = skyline_display(algorithm, nullable, complete, types);
            for fragment in present {
                assert!(
                    display.contains(fragment),
                    "{case}: missing {fragment:?}\n{display}"
                );
            }
            for fragment in absent {
                assert!(
                    !display.contains(fragment),
                    "{case}: unexpected {fragment:?}\n{display}"
                );
            }
        }
    }

    #[test]
    fn computed_dimension_gets_projection_wrap() {
        use sparkline_common::SkylineType;
        let (scan, source) = hotels_scan();
        let schema = scan.schema().unwrap();
        let computed = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: schema.field(0).clone(),
        })
        .binary(
            BinaryOp::Plus,
            Expr::BoundColumn(BoundColumn {
                index: 1,
                field: schema.field(1).clone(),
            }),
        );
        let logical = LogicalPlan::Skyline {
            distinct: false,
            complete: true,
            dims: vec![SkylineDimension::new(computed, SkylineType::Min)],
            input: Arc::new(scan),
        };
        let config = SessionConfig::default();
        let planner = PhysicalPlanner::new(&config, &source);
        let physical = planner.create(&logical).unwrap();
        assert_eq!(physical.schema().len(), 2, "wrapper restores the schema");
        let ctx = TaskContext::new(2);
        let rows = collect(&physical, &ctx).unwrap();
        // min(price+rating) = 45 for (40,5): single optimum row.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(40));
    }

    /// A disk table as the planner's only source.
    struct DiskSource(Arc<sparkline_storage::DiskTable>);

    impl ExecTableSource for DiskSource {
        fn mem_table(&self, _name: &str) -> Option<MemTable> {
            None
        }

        fn disk_table(&self, _name: &str) -> Option<Arc<sparkline_storage::DiskTable>> {
            Some(Arc::clone(&self.0))
        }
    }

    /// The gate installed on the disk scan at the bottom of `plan`.
    fn gate_of(plan: &Arc<dyn ExecutionPlan>) -> Arc<crate::DominanceSkip> {
        match plan.children().first() {
            Some(child) => gate_of(child),
            None => Arc::clone(plan.dominance_skip_slot().unwrap().0.get().unwrap()),
        }
    }

    #[test]
    fn plans_with_one_gate_input_share_one_gate() {
        use sparkline_common::{Field, SkylineType};
        let dir = std::env::temp_dir().join(format!("sparkline-gate-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spk");
        let schema = Schema::new(vec![
            Field::new("a", DataType::Float64, false),
            Field::new("b", DataType::Float64, false),
        ])
        .into_ref();
        // An anti-correlated band plus dominated noise, in Z-ordered blocks.
        let rows: Vec<Row> = (0..4000)
            .map(|k: i64| {
                let a = ((k * 37) % 1000) as f64;
                let b = if k % 4 == 0 {
                    1000.0 - a
                } else {
                    ((k * 53) % 1000) as f64 + 500.0
                };
                Row::new(vec![Value::Float64(a), Value::Float64(b)])
            })
            .collect();
        let opts = sparkline_storage::WriterOptions {
            block_rows: 50,
            ..Default::default()
        };
        sparkline_storage::write_table(&path, Arc::clone(&schema), &rows, opts).unwrap();
        let table = Arc::new(sparkline_storage::DiskTable::open(&path).unwrap());
        let source = DiskSource(Arc::clone(&table));
        let scan = LogicalPlan::TableScan {
            name: "t".into(),
            schema,
        };
        let predicate = |bound: f64| {
            let a = dim(&scan, 0, SkylineType::Min).child;
            a.lt(Expr::Literal(Value::Float64(bound)))
        };
        let query = |bound: f64| {
            let filter = LogicalPlan::Filter {
                predicate: predicate(bound),
                input: Arc::new(scan.clone()),
            };
            LogicalPlan::Skyline {
                distinct: false,
                complete: true,
                dims: vec![
                    dim(&scan, 0, SkylineType::Min),
                    dim(&scan, 1, SkylineType::Min),
                ],
                input: Arc::new(filter),
            }
        };
        let config = SessionConfig::default();
        let plan = |bound: f64| {
            PhysicalPlanner::new(&config, &source)
                .create(&query(bound))
                .unwrap()
        };
        let run = |plan: &Arc<dyn ExecutionPlan>| {
            let ctx = TaskContext::new(2);
            let rows = collect(plan, &ctx).unwrap();
            let m = ctx.metrics.snapshot();
            (rows, m.blocks_skipped_minmax, m.blocks_skipped_dominance)
        };
        let (first, second) = (plan(900.0), plan(900.0));
        assert!(
            Arc::ptr_eq(&gate_of(&first), &gate_of(&second)),
            "one query, one gate"
        );
        let other = plan(600.0);
        assert!(
            !Arc::ptr_eq(&gate_of(&first), &gate_of(&other)),
            "another filter, another gate"
        );
        let (rows, minmax, dominance) = run(&first);
        assert!(dominance > 0, "the gate skips blocks");
        assert_eq!(run(&second), (rows.clone(), minmax, dominance));
        // The skip counts of a gate built afresh, outside the cache.
        let fresh = crate::DiskScanExec::new("t", Arc::clone(&table), table.schema())
            .with_filter(&predicate(900.0));
        let (slot, sample) = fresh.dominance_skip_slot().unwrap();
        let dims = [SkylineDim::min(0), SkylineDim::min(1)];
        let gate = crate::DominanceSkip::from_sample(&dims, &sample).unwrap();
        slot.set(Arc::new(gate)).unwrap();
        let fresh: Arc<dyn ExecutionPlan> = Arc::new(fresh);
        let (_, fresh_minmax, fresh_dominance) = run(&fresh);
        assert_eq!((fresh_minmax, fresh_dominance), (minmax, dominance));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn equi_condition_split() {
        let a = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: sparkline_common::Field::new("a", DataType::Int64, false),
        });
        let b = Expr::BoundColumn(BoundColumn {
            index: 2,
            field: sparkline_common::Field::new("b", DataType::Int64, false),
        });
        let cond = a.clone().eq(b.clone()).and(a.clone().lt(b.clone()));
        let (keys, residual) = split_equi_condition(&cond, 2);
        assert_eq!(keys, vec![(0, 0)]);
        assert!(residual.is_some());
        let (keys, residual) = split_equi_condition(&a.lt(b), 2);
        assert!(keys.is_empty());
        assert!(residual.is_some());
    }

    #[test]
    fn aggregate_compilation_dedups_calls() {
        let input_schema = Schema::new(vec![
            sparkline_common::Field::new("k", DataType::Int64, false),
            sparkline_common::Field::new("v", DataType::Int64, true),
        ]);
        let k = Expr::BoundColumn(BoundColumn {
            index: 0,
            field: input_schema.field(0).clone(),
        });
        let v = Expr::BoundColumn(BoundColumn {
            index: 1,
            field: input_schema.field(1).clone(),
        });
        let sum = Expr::Aggregate {
            func: AggregateFunction::Sum,
            arg: Some(Box::new(v.clone())),
        };
        // SELECT k, sum(v) AS total, sum(v) + count(*) FROM ... GROUP BY k
        let results = vec![
            k.clone(),
            sum.clone().alias("total"),
            sum.clone().binary(
                BinaryOp::Plus,
                Expr::Aggregate {
                    func: AggregateFunction::Count,
                    arg: None,
                },
            ),
        ];
        let (calls, rewritten) =
            compile_aggregate(std::slice::from_ref(&k), &results, &input_schema).unwrap();
        assert_eq!(calls.len(), 2, "sum(v) deduplicated");
        // Internal layout: [k, sum, count].
        assert_eq!(rewritten[0].to_string(), "k#0");
        assert_eq!(rewritten[1].to_string(), "sum(v#1)#1 AS total");
        assert_eq!(rewritten[2].to_string(), "(sum(v#1)#1 + count(*)#2)");
    }
}
