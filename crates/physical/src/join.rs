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
use sparkline_exec::{stream::LazyBuild, MemoryReservation, PartitionStream, TaskContext};
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

/// Bytes charged per build row for the hash table's key and index entry,
/// on top of the row itself.
const HASH_ENTRY_BYTES: usize = 48;

/// The shared hash-join build side: the buffered right rows, the key
/// index into them, and the reservation that keeps both charged against
/// the row gauge and the memory budget while probes run.
struct HashBuild {
    rows: Vec<Row>,
    table: HashMap<Vec<Value>, Vec<usize>>,
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
        let widths = (self.left.schema().len(), self.right.schema().len());

        // Build side: a pipeline breaker shared by every probe stream —
        // the first probe batch pulled drains the right input (fanned over
        // the executor pool, charged as it arrives) and hashes it on the
        // key columns; the table's entries grow the same reservation. Rows
        // with a NULL key never match (SQL equality semantics).
        let right = Arc::clone(&self.right);
        let keys = self.keys.clone();
        let build_ctx = ctx.clone();
        let build = LazyBuild::new(move || {
            let (rows, mut reservation) = build_ctx.gather(right.execute_stream(&build_ctx)?)?;
            let bytes = reservation.bytes() + rows.len() * HASH_ENTRY_BYTES;
            reservation.try_resize(rows.len(), bytes)?;
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
                        let partners = match key.iter().any(Value::is_null) {
                            true => None,
                            false => build.table.get(&key),
                        };
                        let partners = partners.into_iter().flatten().map(|&r| &build.rows[r]);
                        let join = (join_type, &residual);
                        join_row(&ctx, join, left_row, partners, widths, &mut rows)?;
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

/// Join `left_row` with every row of `right_rows` that `predicate`
/// accepts over the combined row (counting each comparison), appending
/// what `join_type` emits to `out`. A semi or anti join stops at the
/// first partner.
fn join_row<'a>(
    ctx: &TaskContext,
    (join_type, predicate): (JoinType, &Option<Expr>),
    left_row: &Row,
    right_rows: impl IntoIterator<Item = &'a Row>,
    (left_width, right_width): (usize, usize),
    out: &mut Vec<Row>,
) -> Result<()> {
    let mut matched = false;
    for right_row in right_rows {
        ctx.metrics.join_comparisons.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = predicate {
            if p.evaluate_joined(left_row, right_row, left_width)? != Value::Boolean(true) {
                continue;
            }
        }
        matched = true;
        match join_type {
            JoinType::LeftSemi | JoinType::LeftAnti => break,
            _ => out.push(left_row.concat(right_row)),
        }
    }
    match join_type {
        JoinType::LeftOuter if !matched => {
            out.push(left_row.extend(std::iter::repeat_n(Value::Null, right_width)))
        }
        JoinType::LeftSemi if matched => out.push(left_row.clone()),
        JoinType::LeftAnti if !matched => out.push(left_row.clone()),
        _ => {}
    }
    Ok(())
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
        let widths = (self.left.schema().len(), self.right.schema().len());

        // Inner side: buffered once, shared by every probe stream.
        let right = Arc::clone(&self.right);
        let build_ctx = ctx.clone();
        let build = LazyBuild::new(move || build_ctx.gather(right.execute_stream(&build_ctx)?));

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
                    let right_rows = &build.get()?.0;
                    let mut rows: Vec<Row> = Vec::new();
                    for left_row in &batch {
                        ctx.control.check()?;
                        let join = (join_type, &predicate);
                        join_row(&ctx, join, left_row, right_rows, widths, &mut rows)?;
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
    use sparkline_exec::partition::flatten;
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
        Arc::new(ScanExec::from_rows(name, rows, schema))
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
            Arc::new(ScanExec::from_rows("l", l_rows, Arc::clone(&schema)));
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
    fn build_sides_past_the_budget_fail_with_one_denial() {
        // 100 build rows of 48 B: 4 800 B of rows, 9 600 B once the hash
        // table's entries are charged too. A 6 000 B budget admits the
        // nested-loop inner side and denies the hash build; 4 000 B denies
        // the nested-loop side as well.
        let data: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let hash = || -> Arc<dyn ExecutionPlan> {
            let (l, r) = (table("l", &data, false), table("r", &data, false));
            Arc::new(HashJoinExec::new(l, r, vec![(0, 0)], None, JoinType::Inner))
        };
        let nested = || -> Arc<dyn ExecutionPlan> {
            let (l, r) = (table("l", &data, false), table("r", &data, false));
            Arc::new(NestedLoopJoinExec::new(l, r, None, JoinType::Cross))
        };
        for (name, plan, budget) in [("hash", hash(), 6_000), ("nested loop", nested(), 4_000)] {
            let ctx = TaskContext::new(2).with_memory_budget(Some(budget));
            let err = plan.execute(&ctx).unwrap_err();
            assert!(err.is_resource_exhausted(), "{name}: {err}");
            assert_eq!(ctx.metrics.snapshot().budget_denials, 1, "{name}");
            assert_eq!(ctx.memory.current_bytes(), 0, "{name}");
        }
        let ctx = TaskContext::new(2).with_memory_budget(Some(6_000));
        assert_eq!(flatten(nested().execute(&ctx).unwrap()).len(), 100 * 100);
        assert_eq!(ctx.metrics.snapshot().budget_denials, 0);
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
