//! The physical planner: optimized logical plans → executable operator
//! trees, including the paper's skyline algorithm selection (Listing 8).

use std::sync::Arc;

use sparkline_common::{
    reservoir_sample, DataType, DatasetStats, Error, MergeStrategy, Result, Row, Schema, SchemaRef,
    SessionConfig, SkylineDim, SkylineMeta, SkylinePartitioning, SkylinePlan, SkylineSpec,
    SkylineStrategy, Value,
};
use sparkline_plan::{
    AggregateFunction, BinaryOp, BoundColumn, Expr, JoinCondition, JoinType, LogicalPlan,
    SkylineDimension,
};

use crate::aggregate::AggCall;
use crate::exchange::{ExchangeExec, ExchangeMode};
use crate::join::{HashJoinExec, NestedLoopJoinExec};
use crate::skyline_exec::{
    GlobalSkylineExec, IncompleteGlobalSkylineExec, LocalSkylineExec, MinMaxFilterExec,
    SkylinePreFilterExec,
};
use crate::{
    basic::{DistinctExec, FilterExec, LimitExec, ProjectExec, SortExec},
    scan::ScanExec,
    ExecutionPlan,
};

/// Source of table *data* for scans (the session catalog implements this).
pub trait ExecTableSource: Send + Sync {
    /// The rows of a registered in-memory table, if it exists.
    fn table_rows(&self, name: &str) -> Option<Arc<Vec<Row>>>;

    /// The disk-resident table registered under `name`, if any. Disk
    /// tables take precedence over in-memory rows when both exist.
    fn disk_table(&self, _name: &str) -> Option<Arc<sparkline_storage::DiskTable>> {
        None
    }
}

/// Translates logical plans into physical operator trees.
pub struct PhysicalPlanner<'a> {
    config: &'a SessionConfig,
    source: &'a dyn ExecTableSource,
}

impl<'a> PhysicalPlanner<'a> {
    /// Planner over a session configuration and a data source.
    pub fn new(config: &'a SessionConfig, source: &'a dyn ExecTableSource) -> Self {
        PhysicalPlanner { config, source }
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
                let rows = self
                    .source
                    .table_rows(name)
                    .ok_or_else(|| Error::plan(format!("no data registered for table '{name}'")))?;
                Arc::new(ScanExec::new(name.clone(), rows, Arc::clone(schema)))
            }
            LogicalPlan::Values { schema, rows } => Arc::new(ScanExec::new(
                "values",
                Arc::new(rows.as_ref().clone()),
                Arc::clone(schema),
            )),
            LogicalPlan::Projection { exprs, input } => {
                let child = self.create(input)?;
                Arc::new(ProjectExec::new(exprs.clone(), plan.schema()?, child))
            }
            LogicalPlan::Filter { predicate, input } => {
                // A filter directly on a disk scan hands its prunable
                // conjuncts to the scan as static min/max bounds; the
                // filter itself stays in the plan for the exact cut.
                let child: Arc<dyn ExecutionPlan> = match input.as_ref() {
                    LogicalPlan::TableScan { name, schema } => match self.source.disk_table(name) {
                        Some(table) => {
                            Arc::new(self.disk_scan(name, table, schema, Some(predicate)))
                        }
                        None => self.create(input)?,
                    },
                    _ => self.create(input)?,
                };
                Arc::new(FilterExec::new(predicate.clone(), child))
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
                input,
            } => {
                let child = self.create(input)?;
                Arc::new(MinMaxFilterExec::new(
                    expr.clone(),
                    *direction,
                    *distinct,
                    child,
                ))
            }
        })
    }

    /// Build a [`DiskScanExec`] over an opened table, with the session's
    /// skipping knobs and (when a filter sits directly on the scan) the
    /// statically extracted min/max bounds.
    fn disk_scan(
        &self,
        name: &str,
        table: Arc<sparkline_storage::DiskTable>,
        schema: &SchemaRef,
        filter: Option<&Expr>,
    ) -> crate::scan_disk::DiskScanExec {
        let bounds = filter
            .map(crate::scan_disk::extract_column_predicates)
            .unwrap_or_default();
        crate::scan_disk::DiskScanExec::new(name.to_string(), table, Arc::clone(schema))
            .with_bounds(bounds)
            .with_skipping(
                self.config.disk_minmax_skipping,
                self.config.disk_dominance_skipping,
            )
    }

    /// Plan-time sample of a skyline input: the base relation is streamed
    /// through the chain of filters/projections above it into a seeded
    /// reservoir, so the sample is a uniform `cap`-row draw from the
    /// operator's *actual* input — a selective `WHERE` shrinks the
    /// population, not the sample, and every pre-filter point is a real
    /// input row (the soundness requirement). The reported population is
    /// exact (rows surviving the chain). Costs one pass of the chain's
    /// expressions over the base rows, the same order of work one
    /// execution of those operators performs anyway.
    ///
    /// Returns `None` when the input shape is not sampleable — joins,
    /// aggregates, and nested skylines reshape rows beyond plan-time
    /// evaluation, and a `LIMIT` drops rows the sample might contain —
    /// in which case the adaptive planner falls back to the static knobs.
    fn sample_input(&self, plan: &LogicalPlan, cap: usize, seed: u64) -> Option<(Vec<Row>, usize)> {
        enum Step<'p> {
            Filter(&'p Expr),
            Project(&'p [Expr]),
        }
        // Walk down to the base relation, collecting the transforms.
        // SubqueryAlias/Sort/Distinct are value-preserving: every sampled
        // row's dimension values still occur in the node's output.
        let mut steps: Vec<Step<'_>> = Vec::new();
        let mut node = plan;
        // Disk tables are sampled through their footer reservoir — a
        // uniform whole-table draw written during the single writer pass —
        // so planning costs zero block I/O. The filtered population is
        // then estimated by scaling the sample's survivor fraction to the
        // file's exact row count.
        let mut disk_scale: Option<(usize, u64)> = None;
        let base_rows: Arc<Vec<Row>> = loop {
            match node {
                LogicalPlan::TableScan { name, .. } => {
                    if let Some(table) = self.source.disk_table(name) {
                        let sample = Arc::clone(table.sample());
                        disk_scale = Some((sample.len(), table.total_rows()));
                        break sample;
                    }
                    break self.source.table_rows(name)?;
                }
                LogicalPlan::Values { rows, .. } => break Arc::clone(rows),
                LogicalPlan::Filter { predicate, input } => {
                    steps.push(Step::Filter(predicate));
                    node = input;
                }
                LogicalPlan::Projection { exprs, input } => {
                    steps.push(Step::Project(exprs));
                    node = input;
                }
                LogicalPlan::SubqueryAlias { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Distinct { input } => node = input,
                _ => return None,
            }
        };
        steps.reverse(); // innermost transform first
        let mut reservoir = sparkline_common::stats::Reservoir::new(cap, seed);
        'rows: for row in base_rows.iter() {
            let mut row = row.clone();
            for step in &steps {
                match step {
                    Step::Filter(predicate) => match predicate.evaluate(&row) {
                        Ok(Value::Boolean(true)) => {}
                        Ok(_) => continue 'rows,
                        Err(_) => return None,
                    },
                    Step::Project(exprs) => {
                        let values: std::result::Result<Vec<Value>, _> =
                            exprs.iter().map(|e| e.evaluate(&row)).collect();
                        row = Row::new(values.ok()?);
                    }
                }
            }
            reservoir.push(row);
        }
        let survivors = reservoir.seen();
        let total = match disk_scale {
            Some((sample_len, total_rows)) if sample_len > 0 => {
                ((survivors as u64).saturating_mul(total_rows) / sample_len as u64) as usize
            }
            Some(_) => 0,
            None => survivors,
        };
        Some((reservoir.into_rows(), total))
    }

    /// The disk table a skyline input resolves to when nothing between
    /// the operator and the scan reshapes rows or changes the column
    /// space (aliases, sorts, and DISTINCT are value-preserving).
    fn bare_disk_table(&self, mut node: &LogicalPlan) -> Option<Arc<sparkline_storage::DiskTable>> {
        loop {
            match node {
                LogicalPlan::TableScan { name, .. } => return self.source.disk_table(name),
                LogicalPlan::SubqueryAlias { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Distinct { input } => node = input,
                _ => return None,
            }
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

        // Strategy selection: algorithm family, local-phase partitioning,
        // and global merge are fixed in one place from the session
        // configuration and the skyline's plan metadata (Listing 8,
        // extended — see `sparkline_common::strategy`). Under the
        // `Adaptive` strategy a seeded reservoir sample of the input
        // additionally supplies dataset statistics (and, from the same
        // sample, the representative pre-filter points); the sampling is
        // deterministic per session config, so repeated `EXPLAIN`s of one
        // query agree on the chosen plan.
        let meta = SkylineMeta::new(&spec, skyline_nullable, complete);
        let sample = if self.config.skyline_strategy == SkylineStrategy::Adaptive {
            self.sample_input(input, self.config.sample_size, self.config.sample_seed)
                .map(|(mut rows, total)| {
                    // Mirror the computed-dimension wrapper on the sample
                    // so the resolved dim indices stay valid.
                    if needs_wrap {
                        rows.retain_mut(|row| {
                            let mut values = row.values().to_vec();
                            for e in &extra_exprs {
                                match e.evaluate(row) {
                                    Ok(v) => values.push(v),
                                    Err(_) => return false,
                                }
                            }
                            *row = Row::new(values);
                            true
                        });
                    }
                    (rows, total)
                })
        } else {
            None
        };
        let mut sample_stats = sample
            .as_ref()
            .map(|(rows, total)| DatasetStats::from_sample(rows, *total, &spec));
        // Footer-exact refinement: a skyline directly over a disk scan
        // (dims bound to scan columns, no filter/projection between) gets
        // its per-dimension min/max and NULL fractions from the block
        // directory's aggregates — exact whole-table figures, zero I/O —
        // instead of the sample estimates.
        if !needs_wrap {
            if let (Some(stats), Some(table)) = (sample_stats.as_mut(), self.bare_disk_table(input))
            {
                let agg = table.column_stats();
                let total = table.total_rows();
                stats.total_rows = total as usize;
                for (k, dim) in spec.dims.iter().enumerate() {
                    if let Some(col) = agg.get(dim.index) {
                        stats.per_dim[k].min = col.min;
                        stats.per_dim[k].max = col.max;
                        stats.per_dim[k].null_fraction = if total == 0 {
                            0.0
                        } else {
                            (col.nulls + col.non_numeric) as f64 / total as f64
                        };
                    }
                }
            }
        }
        let choice = match &sample_stats {
            Some(stats) => SkylinePlan::select_adaptive(self.config, &meta, stats),
            None => SkylinePlan::select(self.config, &meta),
        };

        let mut result: Arc<dyn ExecutionPlan> = if choice.use_complete {
            // Representative pre-filter (adaptive plans): discard tuples
            // strictly dominated by the sample skyline during the scan,
            // before the exchange and the local windows ever see them.
            let mut input_exec = input_exec;
            if choice.prefilter_max_points > 0 {
                if let Some((rows, _)) = &sample {
                    // Cap the sample-skyline computation: a few hundred
                    // rows already saturate a <=64-point budget, and the
                    // plan-time BNL pass is O(rows × window). Re-sample
                    // (seeded) rather than slicing a prefix — the sample
                    // preserves input order when the table fits the
                    // reservoir, and a prefix of a sorted table would
                    // yield a one-sided filter.
                    const PREFILTER_SAMPLE_CAP: usize = 512;
                    let capped;
                    let filter_input: &[Row] = if rows.len() > PREFILTER_SAMPLE_CAP {
                        capped = reservoir_sample(
                            rows,
                            PREFILTER_SAMPLE_CAP,
                            self.config.sample_seed.wrapping_add(1),
                        );
                        &capped
                    } else {
                        rows
                    };
                    let points = sparkline_skyline::representative_points(
                        filter_input,
                        &spec,
                        choice.prefilter_max_points,
                    );
                    if !points.is_empty() {
                        // Dominance-based data skipping: hand the same
                        // representative points to a disk scan reachable
                        // through value-preserving operators (the walk
                        // stops at projections, which change the column
                        // space). A block whose best corner is strictly
                        // dominated by a point is then skipped unread —
                        // sound because the complete relation is
                        // transitive (see `sparkline_storage`'s crate
                        // docs; `DominanceSkip::from_points` additionally
                        // refuses DIFF dimensions).
                        if self.config.disk_dominance_skipping {
                            if let Some(slot) = crate::find_dominance_skip_slot(input_exec.as_ref())
                            {
                                if let Some(skip) = crate::scan_disk::DominanceSkip::from_points(
                                    &spec.dims,
                                    &points,
                                    choice.kernel,
                                ) {
                                    let _ = slot.set(skip);
                                }
                            }
                        }
                        input_exec = Arc::new(
                            SkylinePreFilterExec::new(spec.clone(), points, rows.len(), input_exec)
                                .with_kernel(choice.kernel),
                        );
                    }
                }
            }
            // The pairwise merge consumes the local skylines' distribution
            // directly and fans its tasks over the executor pool. Only a
            // non-distributed plan still needs the `AllTuples` gather the
            // paper describes: without a local phase the single pass must
            // see every tuple.
            let global_input: Arc<dyn ExecutionPlan> = if choice.distributed {
                // Optional angle-based redistribution before the local
                // phase (the paper's default inherits the distribution).
                let local_input: Arc<dyn ExecutionPlan> = match choice.partitioning {
                    SkylinePartitioning::Standard => input_exec,
                    SkylinePartitioning::AngleBased => Arc::new(ExchangeExec::new(
                        ExchangeMode::Angle(spec.clone()),
                        input_exec,
                    )),
                };
                Arc::new(
                    LocalSkylineExec::new(spec.clone(), false, local_input)
                        .with_kernel(choice.kernel),
                )
            } else {
                Arc::new(ExchangeExec::single(input_exec))
            };
            Arc::new(GlobalSkylineExec::new(spec, global_input).with_kernel(choice.kernel))
        } else {
            // §5.7: distribute by null bitmap, then the global phase —
            // the paper's plan (per-class local skylines + an all-pairs
            // pass on one executor) when flat, or the deferred-deletion
            // tree merge consuming the exchange's distribution directly:
            // its leaf builders *are* the per-class local phase (plus the
            // cross-class closure), so a separate `LocalSkylineExec`
            // would only repeat the window work.
            let redistributed = Arc::new(ExchangeExec::new(
                ExchangeMode::NullBitmap(spec.clone()),
                input_exec,
            ));
            // Adaptive plans surface *why* the merge was chosen or refused
            // — the per-dimension NULL fractions now drive strategy, not
            // just the Listing 8 semantics decision.
            let note = sample_stats.as_ref().map(|stats| match choice.merge {
                MergeStrategy::Flat => format!(
                    "adaptive: flat (max NULL fraction {:.2} in {} sampled rows)",
                    stats.max_null_fraction(),
                    stats.sample_rows,
                ),
                MergeStrategy::Hierarchical { .. } => format!(
                    "adaptive: tree (max NULL fraction {:.2} in {} sampled rows, {} executors)",
                    stats.max_null_fraction(),
                    stats.sample_rows,
                    self.config.num_executors,
                ),
            });
            let (global_input, merge): (Arc<dyn ExecutionPlan>, MergeStrategy) = match choice.merge
            {
                MergeStrategy::Flat => {
                    let local = Arc::new(
                        LocalSkylineExec::new(spec.clone(), true, redistributed)
                            .with_kernel(choice.kernel),
                    );
                    (Arc::new(ExchangeExec::single(local)), MergeStrategy::Flat)
                }
                hierarchical => (redistributed, hierarchical),
            };
            Arc::new(
                IncompleteGlobalSkylineExec::new(spec, global_input)
                    .with_merge(merge)
                    .with_kernel(choice.kernel)
                    .with_plan_note(note),
            )
        };

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
    fn conjuncts(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
            } => {
                conjuncts(left, out);
                conjuncts(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    let mut all = Vec::new();
    conjuncts(on, &mut all);
    let mut keys = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in all {
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
    let residual = residual.into_iter().reduce(|a, b| a.and(b));
    (keys, residual)
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
    use sparkline_common::{SkylineStrategy, Value};
    use sparkline_exec::TaskContext;
    use std::collections::HashMap;

    struct MapSource(HashMap<String, Arc<Vec<Row>>>);

    impl ExecTableSource for MapSource {
        fn table_rows(&self, name: &str) -> Option<Arc<Vec<Row>>> {
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
        tables.insert("hotels".to_string(), Arc::new(rows));
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
        assert!(!display.contains("Incomplete"), "{display}");

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
        let config =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::DistributedIncomplete);
        let planner = PhysicalPlanner::new(&config, &source);
        let physical = planner.create(&logical).unwrap();
        let display = crate::display_physical(&physical);
        assert!(display.contains("IncompleteGlobalSkylineExec"), "{display}");
        assert!(display.contains("NullBitmap"), "{display}");
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
        let config =
            SessionConfig::default().with_skyline_strategy(SkylineStrategy::NonDistributedComplete);
        let planner = PhysicalPlanner::new(&config, &source);
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
