//! Repartitioning (exchange) operators.
//!
//! The planner inserts exchanges to satisfy the distribution requirements
//! of the paper's skyline plans: `Single` realizes Spark's `AllTuples`
//! distribution (flat global skyline, sorts), `NullBitmap` is the §5.7
//! distribution that routes tuples with the same NULL pattern in the
//! skyline dimensions to the same executor, and `Angle` is the optional
//! angle-based repartitioning before a complete-data local phase
//! (`SkylinePartitioning::AngleBased`).

use std::sync::Arc;

use sparkline_common::{Result, SchemaRef, SkylineSpec};
use sparkline_exec::{
    partition::{angle_partition, coalesce, hash_partition, total_rows},
    stream::breaker_streams,
    FaultSite, PartitionStream, TaskContext,
};
use sparkline_skyline::null_bitmap;

use crate::ExecutionPlan;

/// How the exchange redistributes rows.
#[derive(Debug, Clone)]
pub enum ExchangeMode {
    /// All rows into one partition (Spark's `AllTuples`).
    Single,
    /// Partition by the null bitmap of the skyline dimensions (§5.7).
    NullBitmap(SkylineSpec),
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
        let inputs = crate::input_streams(&self.input, ctx)?;
        let mode = self.mode.clone();
        let ctx2 = ctx.clone();
        let input_plan = Arc::clone(&self.input);
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
            // A shuffle fault fails the whole stage (as in Spark, where a
            // lost map output fails the reduce task); recovery happens by
            // re-running this subtree through the consumer's retry path.
            ctx2.maybe_inject(FaultSite::Exchange, 0, 0)?;
            // Transient faults below the exchange are recovered here, at
            // the stage boundary: the failed upstream partition is
            // recomputed from the input plan's lineage while the sibling
            // partitions keep their drained results.
            let expected = inputs.len();
            let input = ctx2.drain_streams_retrying(inputs, |i| {
                crate::recreate_partition_stream(input_plan.as_ref(), &ctx2, expected, i)
            })?;
            ctx2.control.check()?;
            ctx2.metrics.rows_exchanged.fetch_add(
                total_rows(&input) as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(match &mode {
                ExchangeMode::Single => coalesce(input),
                ExchangeMode::NullBitmap(spec) => {
                    hash_partition(input, n, |row| null_bitmap(row, spec))
                }
                ExchangeMode::Angle(spec) => angle_partition(input, n, spec),
            })
        }))
    }

    fn describe(&self) -> String {
        match &self.mode {
            ExchangeMode::Single => "ExchangeExec [AllTuples]".to_string(),
            ExchangeMode::NullBitmap(spec) => {
                format!("ExchangeExec [NullBitmap on {} dims]", spec.dims.len())
            }
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
    fn null_bitmap_groups_same_pattern() {
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let plan = ExchangeExec::new(
            ExchangeMode::NullBitmap(spec.clone()),
            input(rows_with_nulls()),
        );
        let ctx = TaskContext::new(3);
        let parts = plan.execute(&ctx).unwrap();
        assert_eq!(total_rows(&parts), 40);
        // Every bitmap class must live in exactly one partition.
        for bitmap in 0u64..4 {
            let holders: Vec<usize> = parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|r| null_bitmap(r, &spec) == bitmap))
                .map(|(i, _)| i)
                .collect();
            assert!(holders.len() <= 1, "bitmap {bitmap} split: {holders:?}");
        }
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
