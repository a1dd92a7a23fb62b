//! Repartitioning (exchange) operators.
//!
//! The planner inserts exchanges to satisfy the distribution requirements
//! of the paper's skyline plans: `Single` realizes Spark's `AllTuples`
//! distribution (the flat global skyline of a non-distributed plan,
//! sorts), and `Angle` is the optional angle-based repartitioning before
//! a complete-data local phase (`SkylinePartitioning::AngleBased`). The
//! incomplete family has no exchange: its local phase groups each scan
//! partition by null bitmap itself (see `sparkline_skyline::incomplete`).

use std::sync::Arc;

use sparkline_common::{Result, SchemaRef, SkylineSpec};
use sparkline_exec::{
    partition::{angle_partition, coalesce, total_rows},
    stream::breaker_streams,
    PartitionStream, TaskContext,
};

use crate::ExecutionPlan;

/// How the exchange redistributes rows.
#[derive(Debug, Clone)]
pub enum ExchangeMode {
    /// All rows into one partition (Spark's `AllTuples`).
    Single,
    /// Partition by polar-angle sector of the first two ranked skyline
    /// dimensions (see `sparkline_exec::partition::angle_partition`).
    Angle(SkylineSpec),
}

/// Repartitioning operator.
#[derive(Debug)]
pub struct ExchangeExec {
    mode: ExchangeMode,
    input: Arc<dyn ExecutionPlan>,
}

impl ExchangeExec {
    /// Exchange with the given mode.
    pub fn new(mode: ExchangeMode, input: Arc<dyn ExecutionPlan>) -> Self {
        ExchangeExec { mode, input }
    }

    /// Convenience: gather everything onto one executor.
    pub fn single(input: Arc<dyn ExecutionPlan>) -> Self {
        ExchangeExec::new(ExchangeMode::Single, input)
    }
}

impl ExecutionPlan for ExchangeExec {
    fn name(&self) -> &'static str {
        "ExchangeExec"
    }

    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![&self.input]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        let inputs = self.input.execute_stream(ctx)?;
        let mode = self.mode.clone();
        let ctx2 = ctx.clone();
        let n = ctx.runtime.num_executors();
        // Every redistribution needs the full input (a gather is a stage
        // boundary even in Spark); the exchange is therefore a breaker
        // that drains the upstream pipelines in parallel — this is where
        // the local phases below an `AllTuples` gather actually run
        // concurrently — and re-emits the shuffled partitions.
        let n_outputs = match &mode {
            ExchangeMode::Single => 1,
            _ => n,
        };
        Ok(breaker_streams(self.schema(), ctx, n_outputs, move || {
            // A failed upstream partition fails the whole stage.
            let input = ctx2.runtime.drain_streams(inputs)?;
            ctx2.control.check()?;
            ctx2.metrics.rows_exchanged.fetch_add(
                total_rows(&input) as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(match &mode {
                ExchangeMode::Single => coalesce(input),
                ExchangeMode::Angle(spec) => angle_partition(input, n, spec),
            })
        }))
    }

    fn describe(&self) -> String {
        match &self.mode {
            ExchangeMode::Single => "ExchangeExec [AllTuples]".to_string(),
            ExchangeMode::Angle(spec) => format!(
                "ExchangeExec [AngleBased on {} dims]",
                spec.ranked_dims().count().min(2)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field, Row, Schema, SkylineDim, Value};

    fn input(rows: Vec<Row>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(ScanExec::new("t", Arc::new(rows), schema))
    }

    fn rows_with_nulls() -> Vec<Row> {
        (0..40)
            .map(|i| {
                let a = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int64(i)
                };
                let b = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int64(i)
                };
                Row::new(vec![a, b])
            })
            .collect()
    }

    #[test]
    fn single_gathers_everything() {
        let plan = ExchangeExec::single(input(rows_with_nulls()));
        let ctx = TaskContext::new(4);
        let parts = plan.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 40);
        assert_eq!(
            ctx.metrics
                .rows_exchanged
                .load(std::sync::atomic::Ordering::Relaxed),
            40
        );
    }

    #[test]
    fn custom_angle_exchange_partitions_by_trade_off() {
        // Points on two extreme trade-offs: low-a/high-b vs high-a/low-b
        // (both MIN dims) must land in different sectors.
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    Row::new(vec![Value::Int64(1), Value::Int64(100 + i)])
                } else {
                    Row::new(vec![Value::Int64(100 + i), Value::Int64(1)])
                }
            })
            .collect();
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let plan = ExchangeExec::new(ExchangeMode::Angle(spec), input(rows));
        assert_eq!(plan.describe(), "ExchangeExec [AngleBased on 2 dims]");
        let ctx = TaskContext::new(4);
        let parts = plan.execute(&ctx).unwrap();
        assert_eq!(total_rows(&parts), 20);
        // Low-a points (steep angle) and low-b points (flat angle) are in
        // different partitions.
        let holding = |pred: &dyn Fn(&Row) -> bool| -> Vec<usize> {
            parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(pred))
                .map(|(i, _)| i)
                .collect()
        };
        let steep = holding(&|r| r.get(0) == &Value::Int64(1));
        let flat = holding(&|r| r.get(1) == &Value::Int64(1));
        assert!(
            steep.iter().all(|s| !flat.contains(s)),
            "{steep:?} vs {flat:?}"
        );
    }
}
