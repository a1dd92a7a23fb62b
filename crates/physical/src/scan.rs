//! Base-table and literal-row scans.

use std::sync::Arc;

use sparkline_common::{Result, Row, SchemaRef};
use sparkline_exec::{partition::even_ranges, PartitionStream, TaskContext};

use crate::ExecutionPlan;

/// Scans an in-memory table (or inline `VALUES` rows), splitting the data
/// evenly across `num_executors` partition streams — Spark's default
/// distribution for a fresh read.
///
/// Each stream clones only one batch of rows out of the shared
/// [`Arc`]'d table per pull; the seed model's upfront full-table copy
/// (`rows.as_ref().clone()`) is gone, and a `LIMIT`-short-circuited query
/// never touches (or counts in `rows_scanned`) the rows it does not read.
#[derive(Debug)]
pub struct ScanExec {
    label: String,
    rows: Arc<Vec<Row>>,
    schema: SchemaRef,
}

impl ScanExec {
    /// Scan over shared rows.
    pub fn new(label: impl Into<String>, rows: Arc<Vec<Row>>, schema: SchemaRef) -> Self {
        ScanExec {
            label: label.into(),
            rows,
            schema,
        }
    }
}

impl ExecutionPlan for ScanExec {
    fn name(&self) -> &'static str {
        "ScanExec"
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![]
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        ctx.control.check()?;
        // Same partition boundaries as `split_evenly` — shared
        // arithmetic, so the two can never drift.
        let ranges = even_ranges(self.rows.len(), ctx.runtime.num_executors());
        let batch_size = ctx.batch_size.max(1);
        Ok(ranges
            .into_iter()
            .map(|(start, end)| {
                let rows = Arc::clone(&self.rows);
                let ctx = ctx.clone();
                let mut pos = start;
                PartitionStream::new(self.schema(), Arc::clone(&ctx.metrics), move || {
                    if pos >= end {
                        return Ok(None);
                    }
                    ctx.control.check()?;
                    let upto = (pos + batch_size).min(end);
                    let batch: Vec<Row> = rows[pos..upto].to_vec();
                    ctx.metrics
                        .rows_scanned
                        .fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
                    pos = upto;
                    Ok(Some(batch))
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        format!("ScanExec [{}: {} rows]", self.label, self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema, Value};

    fn scan(n: usize) -> ScanExec {
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int64(i as i64)]))
            .collect();
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]).into_ref();
        ScanExec::new("t", Arc::new(rows), schema)
    }

    #[test]
    fn scan_partitions_by_executor_count() {
        let scan = scan(10);
        let ctx = TaskContext::new(4);
        let parts = scan.execute(&ctx).unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(sparkline_exec::partition::total_rows(&parts), 10);
        // Identical boundaries to split_evenly.
        let expected = sparkline_exec::partition::split_evenly(
            (0..10).map(|i| Row::new(vec![Value::Int64(i)])).collect(),
            4,
        );
        assert_eq!(parts, expected);
        assert_eq!(
            ctx.metrics
                .rows_scanned
                .load(std::sync::atomic::Ordering::Relaxed),
            10
        );
    }

    #[test]
    fn unpulled_rows_are_never_scanned() {
        let scan = scan(10_000);
        let ctx = TaskContext::new(1).with_batch_size(64);
        let mut streams = scan.execute_stream(&ctx).unwrap();
        assert_eq!(streams.len(), 1);
        let first = streams[0].next_batch().unwrap().unwrap();
        assert_eq!(first.len(), 64);
        drop(streams);
        let snap = ctx.metrics.snapshot();
        assert_eq!(snap.rows_scanned, 64, "only the pulled batch is read");
        assert_eq!(snap.batches_emitted, 1);
    }
}
