//! Pipelined narrow operators (projection, filter, limit, distinct) and
//! the sort pipeline breaker.
//!
//! The narrow operators transform one pulled batch at a time and hold no
//! buffered state beyond it (`DistinctExec` keeps the seen-set, which is
//! bounded by the *output* size and charged to the memory budget as it
//! grows); `LimitExec` stops pulling — and drops its upstream streams,
//! cancelling their remaining work — the moment the limit is reached.
//! `SortExec` is a genuine breaker: a total sort needs every row, so it
//! drains its input (fanned over the executor pool, charged as it
//! arrives) before emitting.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use sparkline_common::{Error, Result, Row, SchemaRef, Value};
use sparkline_exec::{
    stream::{breaker_streams, chain_streams},
    PartitionStream, TaskContext,
};
use sparkline_plan::{Expr, SortExpr};

use crate::scan_disk::GateSample;
use crate::scan_filter::float_columns;
use crate::ExecutionPlan;

/// Evaluates one expression per output column (partition-parallel).
#[derive(Debug)]
pub struct ProjectExec {
    exprs: Vec<Expr>,
    schema: SchemaRef,
    input: Arc<dyn ExecutionPlan>,
}

impl ProjectExec {
    /// Projection with a precomputed output schema.
    pub fn new(exprs: Vec<Expr>, schema: SchemaRef, input: Arc<dyn ExecutionPlan>) -> Self {
        ProjectExec {
            exprs,
            schema,
            input,
        }
    }
}

impl ExecutionPlan for ProjectExec {
    fn name(&self) -> &'static str {
        "ProjectExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = self.input.execute_stream(ctx)?;
        Ok(inputs
            .into_iter()
            .map(|mut input| {
                let exprs = self.exprs.clone();
                let ctx = ctx.clone();
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || {
                    ctx.control.check()?;
                    let Some(batch) = input.next_batch()? else {
                        return Ok(None);
                    };
                    let mut rows = Vec::with_capacity(batch.len());
                    for row in &batch {
                        let values: Vec<Value> = exprs
                            .iter()
                            .map(|e| e.evaluate(row))
                            .collect::<Result<_>>()?;
                        rows.push(Row::new(values));
                    }
                    Ok(Some(rows))
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!(
            "ProjectExec [{}]",
            self.exprs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Keeps rows whose predicate evaluates to `true` (partition-parallel).
#[derive(Debug)]
pub struct FilterExec {
    predicate: Expr,
    input: Arc<dyn ExecutionPlan>,
}

impl FilterExec {
    /// Filter with a bound boolean predicate.
    pub fn new(predicate: Expr, input: Arc<dyn ExecutionPlan>) -> Self {
        FilterExec { predicate, input }
    }
}

impl ExecutionPlan for FilterExec {
    fn name(&self) -> &'static str {
        "FilterExec"
    }

    fn pass_sample(&self, sample: &mut GateSample) -> bool {
        sample.retain_rows(|row| matches!(self.predicate.evaluate(row), Ok(Value::Boolean(true))));
        // Block bounds cannot prove that every row passes an arbitrary
        // predicate, so no block's corner points reach the skyline.
        sample.blocks.clear();
        (sample.filter_columns).extend(float_columns(&self.predicate, &self.schema()));
        true
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = self.input.execute_stream(ctx)?;
        Ok(inputs
            .into_iter()
            .map(|mut input| {
                let predicate = self.predicate.clone();
                let ctx = ctx.clone();
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    ctx.control.check()?;
                    let Some(batch) = input.next_batch()? else {
                        return Ok(None);
                    };
                    let mut rows = Vec::new();
                    for row in batch {
                        if predicate.evaluate(&row)? == Value::Boolean(true) {
                            rows.push(row);
                        }
                    }
                    // Keep pulling until something passes: downstream
                    // operators never see useless empty batches.
                    if !rows.is_empty() {
                        return Ok(Some(rows));
                    }
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!("FilterExec [{}]", self.predicate)
    }
}

/// Takes the first `n` rows (in partition order).
#[derive(Debug)]
pub struct LimitExec {
    n: usize,
    input: Arc<dyn ExecutionPlan>,
}

impl LimitExec {
    /// Limit to `n` rows.
    pub fn new(n: usize, input: Arc<dyn ExecutionPlan>) -> Self {
        LimitExec { n, input }
    }
}

impl ExecutionPlan for LimitExec {
    fn name(&self) -> &'static str {
        "LimitExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let mut input = chain_streams(
            self.schema(),
            Arc::clone(&ctx.metrics),
            self.input.execute_stream(ctx)?,
        );
        let n = self.n;
        let ctx2 = ctx.clone();
        let mut taken = 0usize;
        // One output partition. The
        // short-circuit: once `n` rows are out, the chained upstream is
        // closed — unpulled scan batches are never cloned, unpulled
        // pipeline work never runs.
        let stream = PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
            if taken >= n {
                input.close();
                return Ok(None);
            }
            ctx2.control.check()?;
            let Some(mut batch) = input.next_batch()? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            batch.truncate(n - taken);
            taken += batch.len();
            if taken >= n {
                input.close();
            }
            return Ok(Some(batch));
        });
        Ok(vec![stream])
    }

    fn describe(&self) -> String {
        format!("LimitExec [{}]", self.n)
    }
}

/// Removes duplicate rows in one streaming pass over the input
/// partitions, in order, keeping each row's first occurrence.
#[derive(Debug)]
pub struct DistinctExec {
    input: Arc<dyn ExecutionPlan>,
}

impl DistinctExec {
    /// Distinct over all columns.
    pub fn new(input: Arc<dyn ExecutionPlan>) -> Self {
        DistinctExec { input }
    }
}

impl ExecutionPlan for DistinctExec {
    fn name(&self) -> &'static str {
        "DistinctExec"
    }

    fn pass_sample(&self, _sample: &mut GateSample) -> bool {
        true
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let mut input = chain_streams(
            self.schema(),
            Arc::clone(&ctx.metrics),
            self.input.execute_stream(ctx)?,
        );
        let ctx2 = ctx.clone();
        // First-occurrence dedup is associative over concatenation, so one
        // streaming pass in partition order yields exactly the seed's
        // local-then-global result; the seen-set is bounded by the number
        // of *distinct* rows, not the input size. One reservation follows
        // it, resized after every pulled batch.
        let mut seen: HashSet<Row> = HashSet::new();
        let (mut seen_bytes, mut reservation) = (0, ctx.reservation());
        let stream = PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || loop {
            ctx2.control.check()?;
            let Some(batch) = input.next_batch()? else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            for row in batch {
                if seen.insert(row.clone()) {
                    seen_bytes += row.estimated_bytes();
                    rows.push(row);
                }
            }
            reservation.try_resize(seen.len(), seen_bytes)?;
            if !rows.is_empty() {
                return Ok(Some(rows));
            }
        });
        Ok(vec![stream])
    }
}

/// Total sort on a single executor (Spark would range-shuffle; a global
/// sort is inherently a gather point for our workloads).
#[derive(Debug)]
pub struct SortExec {
    exprs: Vec<SortExpr>,
    input: Arc<dyn ExecutionPlan>,
}

impl SortExec {
    /// Sort by the given keys.
    pub fn new(exprs: Vec<SortExpr>, input: Arc<dyn ExecutionPlan>) -> Self {
        SortExec { exprs, input }
    }

    fn compare_values(a: &Value, b: &Value, asc: bool, nulls_first: bool) -> Ordering {
        let ord = match (a.is_null(), b.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => {
                return if nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                return if nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => a.total_cmp(b),
        };
        if asc {
            ord
        } else {
            ord.reverse()
        }
    }
}

impl ExecutionPlan for SortExec {
    fn name(&self) -> &'static str {
        "SortExec"
    }

    fn pass_sample(&self, _sample: &mut GateSample) -> bool {
        true
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = self.input.execute_stream(ctx)?;
        let exprs = self.exprs.clone();
        let ctx2 = ctx.clone();
        Ok(breaker_streams(self.schema(), ctx, 1, move || {
            // A total sort needs every row: drain the upstream pipelines
            // in parallel, then sort the gathered buffer on one executor;
            // the sorted rows are the drained ones, under their
            // reservation.
            let (rows, reservation) = ctx2.gather(inputs)?;
            ctx2.control.check()?;
            let sorted = sort_rows(&exprs, rows)?;
            ctx2.control.check()?;
            Ok(vec![(sorted, reservation)])
        }))
    }

    fn describe(&self) -> String {
        format!(
            "SortExec [{}]",
            self.exprs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Total sort by the given keys, precomputing them once to avoid
/// re-evaluating expressions in the comparator (O(n log n) comparisons).
fn sort_rows(exprs: &[SortExpr], mut rows: Vec<Row>) -> Result<Vec<Row>> {
    let keys: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| {
            exprs
                .iter()
                .map(|s| s.expr.evaluate(row))
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<_>>()?;
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&i, &j| {
        for (k, s) in exprs.iter().enumerate() {
            let ord = SortExec::compare_values(&keys[i][k], &keys[j][k], s.asc, s.nulls_first);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut sorted = Vec::with_capacity(rows.len());
    // Reorder without cloning rows: take() via Option slots.
    let mut slots: Vec<Option<Row>> = rows.drain(..).map(Some).collect();
    for i in order {
        sorted.push(
            slots[i]
                .take()
                .ok_or_else(|| Error::internal("sort permutation visited a slot twice"))?,
        );
    }
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field, Schema};
    use sparkline_plan::BoundColumn;

    fn scan(rows: Vec<Vec<Value>>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(ScanExec::from_rows(
            "t",
            rows.into_iter().map(Row::new).collect(),
            schema,
        ))
    }

    fn col(i: usize) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: Field::new("c", DataType::Int64, true),
        })
    }

    fn int_rows(data: &[(i64, i64)]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|&(a, b)| vec![Value::Int64(a), Value::Int64(b)])
            .collect()
    }

    fn run(plan: &dyn ExecutionPlan, executors: usize) -> Vec<Row> {
        let ctx = TaskContext::new(executors);
        sparkline_exec::partition::flatten(plan.execute(&ctx).unwrap())
    }

    #[test]
    fn project_computes_expressions() {
        let input = scan(int_rows(&[(1, 2), (3, 4)]));
        let schema = Schema::new(vec![Field::new("s", DataType::Int64, true)]).into_ref();
        let plan = ProjectExec::new(
            vec![col(0).binary(sparkline_plan::BinaryOp::Plus, col(1))],
            schema,
            input,
        );
        let rows = run(&plan, 2);
        let mut vals: Vec<i64> = rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int64(v) => *v,
                other => panic!("{other:?}"),
            })
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![3, 7]);
    }

    #[test]
    fn filter_keeps_only_true() {
        let input = scan(vec![
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(5), Value::Int64(0)],
            vec![Value::Int64(9), Value::Int64(0)],
        ]);
        let plan = FilterExec::new(col(0).gt(Expr::lit(4i64)), input);
        assert_eq!(run(&plan, 2).len(), 2);
    }

    #[test]
    fn filter_null_predicate_drops_row() {
        let input = scan(vec![vec![Value::Null, Value::Null]]);
        let plan = FilterExec::new(col(0).gt(Expr::lit(4i64)), input);
        assert_eq!(run(&plan, 1).len(), 0);
    }

    #[test]
    fn limit_truncates() {
        let input = scan(int_rows(&[(1, 1), (2, 2), (3, 3), (4, 4)]));
        let plan = LimitExec::new(2, input);
        assert_eq!(run(&plan, 3).len(), 2);
    }

    #[test]
    fn limit_larger_than_input() {
        let input = scan(int_rows(&[(1, 1)]));
        let plan = LimitExec::new(10, input);
        assert_eq!(run(&plan, 2).len(), 1);
    }

    #[test]
    fn distinct_dedups_across_partitions() {
        let input = scan(int_rows(&[(1, 1), (1, 1), (2, 2), (1, 1), (2, 2)]));
        let plan = DistinctExec::new(input);
        assert_eq!(run(&plan, 3).len(), 2);
    }

    #[test]
    fn sort_orders_with_nulls() {
        let input = scan(vec![
            vec![Value::Int64(3), Value::Int64(0)],
            vec![Value::Null, Value::Int64(0)],
            vec![Value::Int64(1), Value::Int64(0)],
        ]);
        // ASC NULLS FIRST (default).
        let plan = SortExec::new(vec![SortExpr::asc(col(0))], input);
        let rows = run(&plan, 2);
        assert!(rows[0].get(0).is_null());
        assert_eq!(rows[1].get(0), &Value::Int64(1));
        assert_eq!(rows[2].get(0), &Value::Int64(3));
    }

    #[test]
    fn sort_desc_nulls_last_by_default() {
        let input = scan(vec![
            vec![Value::Int64(3), Value::Int64(0)],
            vec![Value::Null, Value::Int64(0)],
            vec![Value::Int64(1), Value::Int64(0)],
        ]);
        let plan = SortExec::new(vec![SortExpr::desc(col(0))], input);
        let rows = run(&plan, 2);
        assert_eq!(rows[0].get(0), &Value::Int64(3));
        assert!(rows[2].get(0).is_null());
    }

    #[test]
    fn multi_key_sort() {
        let input = scan(int_rows(&[(1, 2), (2, 1), (1, 1), (2, 2)]));
        let plan = SortExec::new(vec![SortExpr::asc(col(0)), SortExpr::desc(col(1))], input);
        let rows = run(&plan, 2);
        let pairs: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| match (r.get(0), r.get(1)) {
                (Value::Int64(a), Value::Int64(b)) => (*a, *b),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(pairs, vec![(1, 2), (1, 1), (2, 2), (2, 1)]);
    }

    /// 20 000 distinct two-column rows (48 B each).
    fn distinct_rows() -> Vec<Vec<Value>> {
        int_rows(&(0..20_000).map(|i| (i, -i)).collect::<Vec<_>>())
    }

    #[test]
    fn a_sort_is_denied_while_it_drains() {
        // 256-row batches of 12 288 B: the sort's drain is charged batch
        // by batch, so a 5 000 B budget stops it on its first batch, not
        // after the whole input is buffered.
        let sort = SortExec::new(vec![SortExpr::asc(col(0))], scan(distinct_rows()));
        let ctx = TaskContext::new(1)
            .with_batch_size(256)
            .with_memory_budget(Some(5_000));
        let err = sort.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        let m = ctx.metrics.snapshot();
        assert_eq!(m.budget_denials, 1);
        assert!(m.rows_scanned < 20_000, "read {} rows", m.rows_scanned);
        assert_eq!(ctx.memory.current_bytes(), 0);
    }

    #[test]
    fn a_drained_breaker_output_is_charged_once() {
        // A sort over a sort: the outer drain charges each batch the inner
        // sort emits, and the inner sort releases it as it leaves, so the
        // peak is one copy of the rows (plus at most one batch), not two.
        let inner = Arc::new(SortExec::new(
            vec![SortExpr::asc(col(0))],
            scan(distinct_rows()),
        ));
        let outer = SortExec::new(vec![SortExpr::asc(col(1))], inner);
        let ctx = TaskContext::new(2).with_batch_size(256);
        assert_eq!(flatten_len(outer.execute(&ctx)), 20_000);
        let peak = ctx.memory.peak_bytes();
        assert!(peak <= (20_000 + 256) * 48, "peak {peak} B");
        assert_eq!(ctx.memory.current_bytes(), 0);
    }

    #[test]
    fn the_distinct_seen_set_is_charged() {
        let distinct = DistinctExec::new(scan(distinct_rows()));
        let ctx = TaskContext::new(2)
            .with_batch_size(256)
            .with_memory_budget(Some(1_000));
        let err = distinct.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        let m = ctx.metrics.snapshot();
        assert_eq!(m.budget_denials, 1);
        assert!(m.rows_scanned < 20_000, "read {} rows", m.rows_scanned);
        assert_eq!(ctx.memory.current_bytes(), 0);
        // Without a budget the seen-set is what the peak shows.
        let ctx = TaskContext::new(2);
        assert_eq!(
            flatten_len(DistinctExec::new(scan(distinct_rows())).execute(&ctx)),
            20_000
        );
        assert_eq!(ctx.memory.peak_bytes(), 20_000 * 48);
    }

    fn flatten_len(parts: Result<Vec<sparkline_exec::Partition>>) -> usize {
        parts.unwrap().iter().map(Vec::len).sum()
    }
}
