//! Hash aggregation: partial aggregation per partition in parallel, merged
//! into a final hash table on one executor (Spark's partial/final split).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use sparkline_common::{DataType, Error, Result, Row, SchemaRef, Value};
use sparkline_exec::{
    partition::split_evenly, stream::breaker_streams, HeldPartition, MemoryReservation, Partition,
    PartitionStream, TaskContext,
};
use sparkline_plan::{AggregateFunction, Expr};

use crate::ExecutionPlan;

/// One aggregate call extracted from the result expressions, with its
/// argument bound against the aggregate's input.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggregateFunction,
    /// Bound argument; `None` encodes `count(*)`.
    pub arg: Option<Expr>,
    /// Input type of the argument (drives sum/avg accumulation).
    pub input_type: DataType,
}

/// A running aggregate state.
#[derive(Debug, Clone)]
enum Accumulator {
    CountStar(i64),
    Count(i64),
    SumInt { sum: i64, seen: bool },
    SumFloat { sum: f64, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl Accumulator {
    fn new(call: &AggCall) -> Accumulator {
        match call.func {
            AggregateFunction::Count if call.arg.is_none() => Accumulator::CountStar(0),
            AggregateFunction::Count => Accumulator::Count(0),
            AggregateFunction::Sum => {
                if call.input_type == DataType::Float64 {
                    Accumulator::SumFloat {
                        sum: 0.0,
                        seen: false,
                    }
                } else {
                    Accumulator::SumInt {
                        sum: 0,
                        seen: false,
                    }
                }
            }
            AggregateFunction::Min => Accumulator::Min(None),
            AggregateFunction::Max => Accumulator::Max(None),
            AggregateFunction::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
        }
    }

    fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            Accumulator::CountStar(n) => *n += 1,
            Accumulator::Count(n) => {
                if value.is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            Accumulator::SumInt { sum, seen } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let add = match v {
                        Value::Int64(i) => *i,
                        other => {
                            return Err(Error::execution(format!(
                                "sum over non-integer value {other}"
                            )))
                        }
                    };
                    *sum = sum
                        .checked_add(add)
                        .ok_or_else(|| Error::execution("integer overflow in sum()"))?;
                    *seen = true;
                }
            }
            Accumulator::SumFloat { sum, seen } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    *sum += numeric(v)?;
                    *seen = true;
                }
            }
            Accumulator::Min(best) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let better = match best {
                        None => true,
                        Some(b) => v.sql_compare(b) == Some(std::cmp::Ordering::Less),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            Accumulator::Max(best) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let better = match best {
                        None => true,
                        Some(b) => v.sql_compare(b) == Some(std::cmp::Ordering::Greater),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    *sum += numeric(v)?;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    fn merge(&mut self, other: Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::CountStar(a), Accumulator::CountStar(b)) => *a += b,
            (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (Accumulator::SumInt { sum, seen }, Accumulator::SumInt { sum: s2, seen: sn2 }) => {
                *sum = sum
                    .checked_add(s2)
                    .ok_or_else(|| Error::execution("integer overflow in sum()"))?;
                *seen |= sn2;
            }
            (Accumulator::SumFloat { sum, seen }, Accumulator::SumFloat { sum: s2, seen: sn2 }) => {
                *sum += s2;
                *seen |= sn2;
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => {
                if let Some(v) = b {
                    let better = match &a {
                        None => true,
                        Some(cur) => v.sql_compare(cur) == Some(std::cmp::Ordering::Less),
                    };
                    if better {
                        *a = Some(v);
                    }
                }
            }
            (Accumulator::Max(a), Accumulator::Max(b)) => {
                if let Some(v) = b {
                    let better = match &a {
                        None => true,
                        Some(cur) => v.sql_compare(cur) == Some(std::cmp::Ordering::Greater),
                    };
                    if better {
                        *a = Some(v);
                    }
                }
            }
            (Accumulator::Avg { sum, count }, Accumulator::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            _ => return Err(Error::internal("mismatched accumulators in merge")),
        }
        Ok(())
    }

    fn finalize(self) -> Value {
        match self {
            Accumulator::CountStar(n) | Accumulator::Count(n) => Value::Int64(n),
            Accumulator::SumInt { sum, seen } => {
                if seen {
                    Value::Int64(sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::SumFloat { sum, seen } => {
                if seen {
                    Value::Float64(sum)
                } else {
                    Value::Null
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                if count > 0 {
                    Value::Float64(sum / count as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

fn numeric(v: &Value) -> Result<f64> {
    match v {
        Value::Int64(i) => Ok(*i as f64),
        Value::Float64(f) => Ok(*f),
        other => Err(Error::execution(format!(
            "numeric aggregate over non-numeric value {other}"
        ))),
    }
}

/// Hash aggregation operator.
///
/// `result_exprs` are compiled against the *internal* row layout
/// `[group values..., aggregate values...]` (the planner performs that
/// rewrite); the output schema is the logical aggregate's.
#[derive(Debug)]
pub struct HashAggregateExec {
    group_exprs: Vec<Expr>,
    agg_calls: Vec<AggCall>,
    result_exprs: Vec<Expr>,
    schema: SchemaRef,
    input: Arc<dyn ExecutionPlan>,
}

impl HashAggregateExec {
    /// Create the operator (see [`crate::planner`] for the compilation of
    /// `result_exprs`).
    pub fn new(
        group_exprs: Vec<Expr>,
        agg_calls: Vec<AggCall>,
        result_exprs: Vec<Expr>,
        schema: SchemaRef,
        input: Arc<dyn ExecutionPlan>,
    ) -> Self {
        HashAggregateExec {
            group_exprs,
            agg_calls,
            result_exprs,
            schema,
            input,
        }
    }
}

/// An aggregation table: group key to accumulators.
type GroupTable = HashMap<Vec<Value>, Vec<Accumulator>>;

/// Phase 2 + 3 of the hash aggregation: merge the partial tables on one
/// executor and evaluate the result expressions over the internal row
/// layout `[group values..., aggregate values...]`.
fn aggregate_final(
    ctx: &TaskContext,
    partials: Vec<((GroupTable, usize), MemoryReservation)>,
    group_exprs: &[Expr],
    agg_calls: &[AggCall],
    result_exprs: &[Expr],
    n: usize,
) -> Result<Vec<HeldPartition>> {
    let (mut merged, mut reservation): (GroupTable, _) = (HashMap::new(), ctx.reservation());
    for ((table, _), held) in partials {
        reservation.merge(held);
        ctx.control.check()?;
        for (key, accs) in table {
            match merged.entry(key) {
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(accs) {
                        a.merge(b)?;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
    }
    // A global aggregate over empty input still yields one row.
    if merged.is_empty() && group_exprs.is_empty() {
        merged.insert(vec![], agg_calls.iter().map(Accumulator::new).collect());
    }
    // Phase 3: evaluate result expressions over internal rows.
    let mut rows = Vec::with_capacity(merged.len());
    for (key, accs) in merged {
        let mut internal = key;
        internal.extend(accs.into_iter().map(Accumulator::finalize));
        let internal_row = Row::new(internal);
        let values: Vec<Value> = result_exprs
            .iter()
            .map(|e| e.evaluate(&internal_row))
            .collect::<Result<_>>()?;
        rows.push(Row::new(values));
    }
    // The tables are spent; the rows they became are charged per output
    // partition.
    drop(reservation);
    let charge = |part: Partition| {
        let mut held = ctx.reservation();
        held.try_resize(part.len(), part.iter().map(Row::estimated_bytes).sum())?;
        Ok((part, held))
    };
    split_evenly(rows, n).into_iter().map(charge).collect()
}

/// Fold one batch into a partial-aggregation table; returns the bytes of
/// the groups it added (keys and accumulators).
fn partial_batch(
    group_exprs: &[Expr],
    agg_calls: &[AggCall],
    table: &mut GroupTable,
    batch: &[Row],
) -> Result<usize> {
    let mut added = 0;
    for row in batch {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|e| e.evaluate(row))
            .collect::<Result<_>>()?;
        let accs = match table.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                added += e.key().iter().map(Value::estimated_bytes).sum::<usize>()
                    + agg_calls.len() * std::mem::size_of::<Accumulator>();
                e.insert(agg_calls.iter().map(Accumulator::new).collect())
            }
        };
        for (acc, call) in accs.iter_mut().zip(agg_calls) {
            match &call.arg {
                Some(arg) => acc.update(Some(&arg.evaluate(row)?))?,
                None => acc.update(None)?,
            }
        }
    }
    Ok(added)
}

impl ExecutionPlan for HashAggregateExec {
    fn name(&self) -> &'static str {
        "HashAggregateExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = self.input.execute_stream(ctx)?;
        let group_exprs = self.group_exprs.clone();
        let agg_calls = self.agg_calls.clone();
        let result_exprs = self.result_exprs.clone();
        let n = ctx.runtime.num_executors();
        let ctx2 = ctx.clone();
        Ok(breaker_streams(self.schema(), ctx, n, move || {
            // Phase 1: parallel partial aggregation, one stream per
            // executor, folding batch-by-batch — the buffered state is the
            // partial hash table (bounded by the number of groups), never
            // the input; its reservation follows it batch by batch.
            let partials = ctx2.fold(inputs, Default::default, |(table, bytes), batch| {
                *bytes += partial_batch(&group_exprs, &agg_calls, table, &batch)?;
                Ok((table.len(), *bytes))
            })?;
            aggregate_final(&ctx2, partials, &group_exprs, &agg_calls, &result_exprs, n)
        }))
    }

    fn describe(&self) -> String {
        format!(
            "HashAggregateExec [groups: {}; aggs: {}]",
            self.group_exprs.len(),
            self.agg_calls.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanExec;
    use sparkline_common::{Field, Schema};
    use sparkline_plan::BoundColumn;

    fn col(i: usize, dt: DataType) -> Expr {
        Expr::BoundColumn(BoundColumn {
            index: i,
            field: Field::new("c", dt, true),
        })
    }

    fn input(rows: Vec<Vec<Value>>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(ScanExec::from_rows(
            "t",
            rows.into_iter().map(Row::new).collect(),
            schema,
        ))
    }

    fn run(plan: &dyn ExecutionPlan) -> Vec<Row> {
        let ctx = TaskContext::new(3);
        let mut rows = sparkline_exec::partition::flatten(plan.execute(&ctx).unwrap());
        rows.sort_by(|a, b| a.get(0).total_cmp(b.get(0)));
        rows
    }

    #[test]
    fn grouped_count_sum_min_max_avg() {
        let data = vec![
            vec![Value::Int64(1), Value::Int64(10)],
            vec![Value::Int64(1), Value::Int64(20)],
            vec![Value::Int64(2), Value::Null],
            vec![Value::Int64(2), Value::Int64(5)],
        ];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("cnt", DataType::Int64, false),
            Field::new("sum", DataType::Int64, true),
            Field::new("min", DataType::Int64, true),
            Field::new("max", DataType::Int64, true),
            Field::new("avg", DataType::Float64, true),
        ])
        .into_ref();
        let calls: Vec<AggCall> = [
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
        ]
        .into_iter()
        .map(|func| AggCall {
            func,
            arg: Some(col(1, DataType::Int64)),
            input_type: DataType::Int64,
        })
        .collect();
        // Internal layout: [k, count, sum, min, max, avg].
        let result_exprs: Vec<Expr> = (0..6).map(|i| col(i, DataType::Int64)).collect();
        let plan = HashAggregateExec::new(
            vec![col(0, DataType::Int64)],
            calls,
            result_exprs,
            schema,
            input(data),
        );
        let rows = run(&plan);
        assert_eq!(rows.len(), 2);
        // Group 1: count 2, sum 30, min 10, max 20, avg 15.
        assert_eq!(rows[0].get(1), &Value::Int64(2));
        assert_eq!(rows[0].get(2), &Value::Int64(30));
        assert_eq!(rows[0].get(3), &Value::Int64(10));
        assert_eq!(rows[0].get(4), &Value::Int64(20));
        assert_eq!(rows[0].get(5), &Value::Float64(15.0));
        // Group 2: NULL is ignored by all but count(*): count 1, sum 5.
        assert_eq!(rows[1].get(1), &Value::Int64(1));
        assert_eq!(rows[1].get(2), &Value::Int64(5));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let schema = Schema::new(vec![
            Field::new("cnt", DataType::Int64, false),
            Field::new("sum", DataType::Int64, true),
        ])
        .into_ref();
        let plan = HashAggregateExec::new(
            vec![],
            vec![
                AggCall {
                    func: AggregateFunction::Count,
                    arg: None,
                    input_type: DataType::Int64,
                },
                AggCall {
                    func: AggregateFunction::Sum,
                    arg: Some(col(1, DataType::Int64)),
                    input_type: DataType::Int64,
                },
            ],
            vec![col(0, DataType::Int64), col(1, DataType::Int64)],
            schema,
            input(vec![]),
        );
        let rows = run(&plan);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int64(0));
        assert_eq!(rows[0].get(1), &Value::Null);
    }

    #[test]
    fn count_star_counts_null_rows() {
        let data = vec![
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(1), Value::Null],
        ];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("cnt", DataType::Int64, false),
            Field::new("cntv", DataType::Int64, false),
        ])
        .into_ref();
        let plan = HashAggregateExec::new(
            vec![col(0, DataType::Int64)],
            vec![
                AggCall {
                    func: AggregateFunction::Count,
                    arg: None,
                    input_type: DataType::Int64,
                },
                AggCall {
                    func: AggregateFunction::Count,
                    arg: Some(col(1, DataType::Int64)),
                    input_type: DataType::Int64,
                },
            ],
            vec![
                col(0, DataType::Int64),
                col(1, DataType::Int64),
                col(2, DataType::Int64),
            ],
            schema,
            input(data),
        );
        let rows = run(&plan);
        assert_eq!(rows[0].get(1), &Value::Int64(2), "count(*) counts NULLs");
        assert_eq!(rows[0].get(2), &Value::Int64(0), "count(v) skips NULLs");
    }

    #[test]
    fn group_keys_with_nulls_form_one_group() {
        let data = vec![
            vec![Value::Null, Value::Int64(1)],
            vec![Value::Null, Value::Int64(2)],
        ];
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, true),
            Field::new("cnt", DataType::Int64, false),
        ])
        .into_ref();
        let plan = HashAggregateExec::new(
            vec![col(0, DataType::Int64)],
            vec![AggCall {
                func: AggregateFunction::Count,
                arg: None,
                input_type: DataType::Int64,
            }],
            vec![col(0, DataType::Int64), col(1, DataType::Int64)],
            schema,
            input(data),
        );
        let rows = run(&plan);
        assert_eq!(rows.len(), 1, "NULL keys group together");
        assert_eq!(rows[0].get(1), &Value::Int64(2));
    }

    #[test]
    fn partial_tables_are_charged_while_they_fold() {
        // 20 000 groups, 256 rows a batch on each of two executors: each
        // partial table grows by 256 groups per batch, so a 5 000 B
        // budget stops phase 1 long before the input is read.
        let data = (0..20_000)
            .map(|i| vec![Value::Int64(i), Value::Int64(1)])
            .collect();
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("cnt", DataType::Int64, false),
        ])
        .into_ref();
        let count = AggCall {
            func: AggregateFunction::Count,
            arg: None,
            input_type: DataType::Int64,
        };
        let plan = HashAggregateExec::new(
            vec![col(0, DataType::Int64)],
            vec![count],
            vec![col(0, DataType::Int64), col(1, DataType::Int64)],
            schema,
            input(data),
        );
        let ctx = TaskContext::new(2)
            .with_batch_size(256)
            .with_memory_budget(Some(5_000));
        let err = plan.execute(&ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        let m = ctx.metrics.snapshot();
        assert!(m.budget_denials >= 1);
        assert!(m.rows_scanned < 20_000, "read {} rows", m.rows_scanned);
        assert_eq!(ctx.memory.current_bytes(), 0);
        assert_eq!(
            ctx.metrics
                .rows_in_flight
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
}
