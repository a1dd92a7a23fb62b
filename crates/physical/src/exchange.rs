//! The `AllTuples` gather, the one exchange a plan holds: the flat global
//! skyline of a non-distributed plan must see every row on one executor.
//! Every other plan reads its input's partitions where they are (paper
//! §2/§5.6), so nothing else moves rows between executors.

use std::sync::Arc;

use sparkline_common::{Result, SchemaRef};
use sparkline_exec::{stream::breaker_streams, PartitionStream, TaskContext};

use crate::ExecutionPlan;

/// Gathers every input partition into one (Spark's `AllTuples`).
#[derive(Debug)]
pub struct ExchangeExec {
    input: Arc<dyn ExecutionPlan>,
}

impl ExchangeExec {
    /// Gather everything onto one executor.
    pub fn single(input: Arc<dyn ExecutionPlan>) -> Self {
        ExchangeExec { input }
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
        let ctx2 = ctx.clone();
        // The gather needs the full input (a stage boundary even in
        // Spark); it is therefore a breaker that drains the upstream
        // pipelines in parallel — this is where the operators below it
        // actually run concurrently — and re-emits one partition.
        Ok(breaker_streams(self.schema(), ctx, 1, move || {
            // A failed upstream partition fails the whole stage.
            let gathered = ctx2.gather(inputs)?;
            ctx2.control.check()?;
            ctx2.metrics.rows_exchanged.fetch_add(
                gathered.0.len() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(vec![gathered])
        }))
    }

    fn describe(&self) -> String {
        "ExchangeExec [AllTuples]".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScanExec;
    use sparkline_common::{DataType, Field, Row, Schema, Value};

    fn input(rows: Vec<Row>) -> Arc<dyn ExecutionPlan> {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ])
        .into_ref();
        Arc::new(ScanExec::from_rows("t", rows, schema))
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
}
