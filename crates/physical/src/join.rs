//! Join operators: hash joins for equi-conditions and nested-loop joins
//! for everything else — in particular the `LeftAnti` nested-loop join
//! that executes the paper's *reference* plain-SQL skyline queries
//! (Listing 4). Its per-pair interpreted predicate evaluation and
//! quadratic scan are exactly why the reference algorithm scales poorly
//! in the evaluation (§6.4).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sparkline_common::{Result, Row, Schema, SchemaRef, Value};
use sparkline_exec::{
    partition::flatten, stream::LazyBuild, InFlightRows, MemoryReservation, PartitionStream,
    TaskContext,
};
use sparkline_plan::{Expr, JoinType};

use crate::ExecutionPlan;

/// Output schema of a join.
fn join_schema(left: &Schema, right: &Schema, join_type: JoinType) -> SchemaRef {
    match join_type {
        JoinType::LeftSemi | JoinType::LeftAnti => left.clone().into_ref(),
        JoinType::LeftOuter => {
            let right = Schema::new(
                right
                    .fields()
                    .iter()
                    .map(|f| f.with_nullable(true))
                    .collect(),
            );
            left.join(&right).into_ref()
        }
        _ => left.join(right).into_ref(),
    }
}

/// The shared hash-join build side: the buffered right rows, the key
/// index into them, and the accounting guards that keep the buffer
/// charged against the in-flight/memory gauges while probes run.
struct HashBuild {
    rows: Vec<Row>,
    table: HashMap<Vec<Value>, Vec<usize>>,
    _guard: InFlightRows,
    _reservation: MemoryReservation,
}

/// Hash join on equality columns, with an optional residual predicate
/// evaluated over the combined row. Supports `Inner` and `LeftOuter`.
#[derive(Debug)]
pub struct HashJoinExec {
    left: Arc<dyn ExecutionPlan>,
    right: Arc<dyn ExecutionPlan>,
    /// Pairs of (left column, right column) equality keys; right indices
    /// are relative to the right schema.
    keys: Vec<(usize, usize)>,
    /// Residual condition over the combined row (left columns first).
    residual: Option<Expr>,
    join_type: JoinType,
    schema: SchemaRef,
}

impl HashJoinExec {
    /// Build a hash join. `join_type` must be `Inner` or `LeftOuter`.
    pub fn new(
        left: Arc<dyn ExecutionPlan>,
        right: Arc<dyn ExecutionPlan>,
        keys: Vec<(usize, usize)>,
        residual: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        assert!(
            matches!(join_type, JoinType::Inner | JoinType::LeftOuter),
            "hash join supports inner and left outer joins"
        );
        assert!(!keys.is_empty(), "hash join requires equality keys");
        let schema = join_schema(&left.schema(), &right.schema(), join_type);
        HashJoinExec {
            left,
            right,
            keys,
            residual,
            join_type,
            schema,
        }
    }
}

impl ExecutionPlan for HashJoinExec {
    fn name(&self) -> &'static str {
        "HashJoinExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.left, &self.right]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let left_streams = self.left.execute_stream(ctx)?;
        let right_width = self.right.schema().len();
        let left_width = self.left.schema().len();

        // Build side: a pipeline breaker shared by every probe stream —
        // the first probe batch pulled drains the right input (fanned over
        // the executor pool) and hashes it on the key columns. Rows with a
        // NULL key never match (SQL equality semantics).
        let right = Arc::clone(&self.right);
        let keys = self.keys.clone();
        let build_ctx = ctx.clone();
        let build = LazyBuild::new(move || {
            let rows = flatten(
                build_ctx
                    .runtime
                    .drain_streams(right.execute_stream(&build_ctx)?)?,
            );
            let bytes: usize = rows.iter().map(|r| r.estimated_bytes()).sum();
            let guard = InFlightRows::new(Arc::clone(&build_ctx.metrics), rows.len());
            let reservation = build_ctx.memory.reserve(bytes + rows.len() * 48);
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let key: Vec<Value> = keys.iter().map(|&(_, r)| row.get(r).clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                table.entry(key).or_default().push(i);
            }
            Ok(HashBuild {
                rows,
                table,
                _guard: guard,
                _reservation: reservation,
            })
        });

        // Probe side: pipelined over the left streams.
        Ok(left_streams
            .into_iter()
            .map(|mut input| {
                let build = Arc::clone(&build);
                let keys = self.keys.clone();
                let residual = self.residual.clone();
                let join_type = self.join_type;
                let ctx = ctx.clone();
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    ctx.control.check()?;
                    let Some(batch) = input.next_batch()? else {
                        return Ok(None);
                    };
                    let build = build.get()?;
                    let mut rows: Vec<Row> = Vec::new();
                    for left_row in &batch {
                        let key: Vec<Value> =
                            keys.iter().map(|&(l, _)| left_row.get(l).clone()).collect();
                        let mut matched = false;
                        if !key.iter().any(Value::is_null) {
                            if let Some(candidates) = build.table.get(&key) {
                                for &r in candidates {
                                    let right_row = &build.rows[r];
                                    ctx.metrics.join_comparisons.fetch_add(1, Ordering::Relaxed);
                                    let keep = match &residual {
                                        Some(p) => {
                                            p.evaluate_joined(left_row, right_row, left_width)?
                                                == Value::Boolean(true)
                                        }
                                        None => true,
                                    };
                                    if keep {
                                        matched = true;
                                        rows.push(left_row.concat(right_row));
                                    }
                                }
                            }
                        }
                        if !matched && join_type == JoinType::LeftOuter {
                            rows.push(
                                left_row.extend(std::iter::repeat_n(Value::Null, right_width)),
                            );
                        }
                    }
                    if !rows.is_empty() {
                        return Ok(Some(rows));
                    }
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "HashJoinExec [{:?}, keys: {:?}{}]",
            self.join_type,
            self.keys,
            match &self.residual {
                Some(r) => format!(", residual: {r}"),
                None => String::new(),
            }
        )
    }
}

/// The shared nested-loop inner side with its accounting guards.
struct NestedLoopBuild {
    rows: Vec<Row>,
    _guard: InFlightRows,
    _reservation: MemoryReservation,
}

/// Nested-loop join evaluating an arbitrary predicate per pair. Supports
/// all join types; it is the execution strategy of the paper's reference
/// queries (`LeftAnti` with pure inequality conditions).
#[derive(Debug)]
pub struct NestedLoopJoinExec {
    left: Arc<dyn ExecutionPlan>,
    right: Arc<dyn ExecutionPlan>,
    /// Predicate over the combined row; `None` means always-true (cross).
    predicate: Option<Expr>,
    join_type: JoinType,
    schema: SchemaRef,
}

impl NestedLoopJoinExec {
    /// Build a nested-loop join.
    pub fn new(
        left: Arc<dyn ExecutionPlan>,
        right: Arc<dyn ExecutionPlan>,
        predicate: Option<Expr>,
        join_type: JoinType,
    ) -> Self {
        let schema = join_schema(&left.schema(), &right.schema(), join_type);
        NestedLoopJoinExec {
            left,
            right,
            predicate,
            join_type,
            schema,
        }
    }
}

/// Evaluate the join predicate for one (left, right) pair, counting the
/// comparison.
fn pair_matches(
    predicate: &Option<Expr>,
    left_row: &Row,
    right_row: &Row,
    left_width: usize,
    ctx: &TaskContext,
) -> Result<bool> {
    ctx.metrics.join_comparisons.fetch_add(1, Ordering::Relaxed);
    match predicate {
        Some(p) => Ok(p.evaluate_joined(left_row, right_row, left_width)? == Value::Boolean(true)),
        None => Ok(true),
    }
}

impl ExecutionPlan for NestedLoopJoinExec {
    fn name(&self) -> &'static str {
        "NestedLoopJoinExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.left, &self.right]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let left_streams = self.left.execute_stream(ctx)?;
        let right_width = self.right.schema().len();
        let left_width = self.left.schema().len();

        // Inner side: buffered once, shared by every probe stream.
        let right = Arc::clone(&self.right);
        let build_ctx = ctx.clone();
        let build = LazyBuild::new(move || {
            let rows = flatten(
                build_ctx
                    .runtime
                    .drain_streams(right.execute_stream(&build_ctx)?)?,
            );
            let bytes: usize = rows.iter().map(|r| r.estimated_bytes()).sum();
            let guard = InFlightRows::new(Arc::clone(&build_ctx.metrics), rows.len());
            let reservation = build_ctx.memory.reserve(bytes);
            Ok(NestedLoopBuild {
                rows,
                _guard: guard,
                _reservation: reservation,
            })
        });

        // The paper notes the reference plan is "still somewhat
        // distributed": the outer loop pipelines over left batches while
        // every probe scans the whole right side.
        Ok(left_streams
            .into_iter()
            .map(|mut input| {
                let build = Arc::clone(&build);
                let predicate = self.predicate.clone();
                let join_type = self.join_type;
                let ctx = ctx.clone();
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    let Some(batch) = input.next_batch()? else {
                        return Ok(None);
                    };
                    let right_rows = &build.get()?.rows;
                    let mut rows: Vec<Row> = Vec::new();
                    for left_row in &batch {
                        ctx.control.check()?;
                        match join_type {
                            JoinType::Inner | JoinType::Cross => {
                                for right_row in right_rows {
                                    if pair_matches(
                                        &predicate, left_row, right_row, left_width, &ctx,
                                    )? {
                                        rows.push(left_row.concat(right_row));
                                    }
                                }
                            }
                            JoinType::LeftOuter => {
                                let mut matched = false;
                                for right_row in right_rows {
                                    if pair_matches(
                                        &predicate, left_row, right_row, left_width, &ctx,
                                    )? {
                                        matched = true;
                                        rows.push(left_row.concat(right_row));
                                    }
                                }
                                if !matched {
                                    rows.push(
                                        left_row
                                            .extend(std::iter::repeat_n(Value::Null, right_width)),
                                    );
                                }
                            }
                            JoinType::LeftSemi => {
                                for right_row in right_rows {
                                    if pair_matches(
                                        &predicate, left_row, right_row, left_width, &ctx,
                                    )? {
                                        rows.push(left_row.clone());
                                        break;
                                    }
                                }
                            }
                            JoinType::LeftAnti => {
                                let mut matched = false;
                                for right_row in right_rows {
                                    if pair_matches(
                                        &predicate, left_row, right_row, left_width, &ctx,
                                    )? {
                                        matched = true;
                                        break;
                                    }
                                }
                                if !matched {
                                    rows.push(left_row.clone());
                                }
                            }
                        }
                    }
                    if !rows.is_empty() {
                        return Ok(Some(rows));
                    }
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "NestedLoopJoinExec [{:?}{}]",
            self.join_type,
            match &self.predicate {
                Some(p) => format!(", on: {p}"),
                None => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field};
    use sparkline_plan::BoundColumn;

    fn table(name: &str, data: &[(i64, i64)], nullable_key: bool) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::qualified(name, "k", DataType::Int64, nullable_key),
            Field::qualified(name, "v", DataType::Int64, false),
        ])
        .into_ref();
        let rows: Vec<Row> = data
            .iter()
            .map(|&(k, v)| Row::new(vec![Value::Int64(k), Value::Int64(v)]))
            .collect();
        Arc::new(ScanExec::new(name, Arc::new(rows), schema))
    }

    fn col(i: usize) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: Field::new("c", DataType::Int64, true),
        })
    }

    fn run(plan: &dyn ExecutionPlan, executors: usize) -> Vec<Row> {
        let ctx = TaskContext::new(executors);
        let mut rows = flatten(plan.execute(&ctx).unwrap());
        rows.sort_by_key(|a| a.to_string());
        rows
    }

    #[test]
    fn inner_hash_join() {
        let l = table("l", &[(1, 10), (2, 20), (3, 30)], false);
        let r = table("r", &[(1, 100), (1, 101), (3, 300)], false);
        let join = HashJoinExec::new(l, r, vec![(0, 0)], None, JoinType::Inner);
        let rows = run(&join, 2);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.width() == 4));
    }

    #[test]
    fn left_outer_hash_join_pads_nulls() {
        let l = table("l", &[(1, 10), (2, 20)], false);
        let r = table("r", &[(1, 100)], false);
        let join = HashJoinExec::new(l, r, vec![(0, 0)], None, JoinType::LeftOuter);
        let rows = run(&join, 2);
        assert_eq!(rows.len(), 2);
        let unmatched = rows.iter().find(|r| r.get(0) == &Value::Int64(2)).unwrap();
        assert!(unmatched.get(2).is_null() && unmatched.get(3).is_null());
    }

    #[test]
    fn null_keys_never_match_but_outer_preserves() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("v", DataType::Int64, false),
        ])
        .into_ref();
        let l_rows = vec![Row::new(vec![Value::Null, Value::Int64(1)])];
        let l: Arc<dyn ExecutionPlan> =
            Arc::new(ScanExec::new("l", Arc::new(l_rows), Arc::clone(&schema)));
        let r = table("r", &[(1, 100)], false);

        let inner = HashJoinExec::new(
            Arc::clone(&l),
            Arc::clone(&r),
            vec![(0, 0)],
            None,
            JoinType::Inner,
        );
        assert_eq!(run(&inner, 1).len(), 0);

        let outer = HashJoinExec::new(l, r, vec![(0, 0)], None, JoinType::LeftOuter);
        let rows = run(&outer, 1);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get(2).is_null());
    }

    #[test]
    fn hash_join_residual_predicate() {
        let l = table("l", &[(1, 10), (1, 5)], false);
        let r = table("r", &[(1, 7)], false);
        // ON l.k = r.k AND l.v > r.v
        let residual = col(1).gt(col(3));
        let join = HashJoinExec::new(l, r, vec![(0, 0)], Some(residual), JoinType::Inner);
        let rows = run(&join, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(10));
    }

    #[test]
    fn nested_loop_cross_join() {
        let l = table("l", &[(1, 1), (2, 2)], false);
        let r = table("r", &[(3, 3), (4, 4), (5, 5)], false);
        let join = NestedLoopJoinExec::new(l, r, None, JoinType::Cross);
        assert_eq!(run(&join, 2).len(), 6);
    }

    #[test]
    fn nested_loop_anti_join_reference_shape() {
        // Single MIN dimension skyline via NOT EXISTS: keep rows where no
        // other row has a strictly smaller v.
        let l = table("l", &[(1, 10), (2, 5), (3, 7)], false);
        let r = table("r", &[(1, 10), (2, 5), (3, 7)], false);
        // anti predicate: r.v < l.v  (combined index 3 < index 1)
        let pred = col(3).lt(col(1));
        let join = NestedLoopJoinExec::new(l, r, Some(pred), JoinType::LeftAnti);
        let rows = run(&join, 3);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(5));
    }

    #[test]
    fn nested_loop_semi_join() {
        let l = table("l", &[(1, 10), (2, 5)], false);
        let r = table("r", &[(9, 6)], false);
        // semi predicate: r.v > l.v
        let pred = col(3).gt(col(1));
        let join = NestedLoopJoinExec::new(l, r, Some(pred), JoinType::LeftSemi);
        let rows = run(&join, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::Int64(5));
        assert_eq!(rows[0].width(), 2, "semi join emits left columns only");
    }

    #[test]
    fn join_comparisons_metric_recorded() {
        let l = table("l", &[(1, 1), (2, 2)], false);
        let r = table("r", &[(1, 1), (2, 2)], false);
        let join = NestedLoopJoinExec::new(l, r, None, JoinType::Cross);
        let ctx = TaskContext::new(2);
        join.execute(&ctx).unwrap();
        assert_eq!(ctx.metrics.join_comparisons.load(Ordering::Relaxed), 4);
    }
}
