//! The in-memory table scan.
//!
//! An in-memory table is a [`MemTable`]: immutable column chunks, the
//! layout of a [`ColumnBatch`](sparkline_common::ColumnBatch) without its
//! selection vector. [`ScanExec`] splits the table's rows evenly across
//! the executors, copies each batch's rows out of the chunks into a column
//! batch (across a chunk boundary where a batch spans two), and yields it
//! as [`Batch::Columns`], as the disk scan does. A `WHERE` clause that is
//! an `AND` of exactly comparable `column <op> literal` conjuncts is the
//! scan's own: it evaluates it on each batch's buffers with the disk
//! scan's [`ScanFilter`], and the planner plans no `FilterExec`. An
//! operator that wants rows gets them built from the selected rows, and
//! the local skyline builds one only for a row that survives its first
//! cross-filter.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sparkline_common::{Error, MemTable, Result, Row, SchemaRef};
use sparkline_exec::{partition::even_ranges, Batch, PartitionStream, TaskContext};
use sparkline_plan::Expr;

use crate::scan_filter::ScanFilter;
use crate::ExecutionPlan;

/// Scans an in-memory table (or inline `VALUES` rows), splitting its rows
/// evenly across `num_executors` partition streams — Spark's default
/// distribution for a fresh read.
///
/// Each stream copies one batch of rows out of the shared chunks per
/// pull, so a `LIMIT`-short-circuited query never touches (or counts in
/// `rows_scanned`) the rows it does not read.
#[derive(Debug)]
pub struct ScanExec {
    label: String,
    table: MemTable,
    schema: SchemaRef,
    filter: Option<ScanFilter>,
}

impl ScanExec {
    /// Scan over a table snapshot.
    pub fn new(label: impl Into<String>, table: MemTable, schema: SchemaRef) -> Self {
        ScanExec {
            label: label.into(),
            table,
            schema,
            filter: None,
        }
    }

    /// Scan over `rows`, built into a table of `schema`'s column types
    /// (inline `VALUES` rows). A row whose width is not the schema's is a
    /// plan error.
    pub fn from_rows(label: impl Into<String>, rows: Vec<Row>, schema: SchemaRef) -> Result<Self> {
        let label = label.into();
        let table = MemTable::from_checked_rows(&schema, rows, |i, row| {
            if row.width() == schema.len() {
                return Ok(());
            }
            Err(Error::plan(format!(
                "{label}: row {i} has {} values, schema has {} columns",
                row.width(),
                schema.len()
            )))
        })?;
        Ok(ScanExec::new(label, table, schema))
    }

    /// Take over the `Filter` directly above the scan when its whole
    /// predicate is an `AND` of exactly comparable conjuncts
    /// ([`evaluates_filter`](Self::evaluates_filter)); any other predicate
    /// is left to a `FilterExec`.
    pub fn with_filter(mut self, predicate: &Expr) -> Self {
        self.filter = ScanFilter::new(predicate, &self.schema);
        self
    }

    /// Whether the scan evaluates its filter's whole predicate, so no
    /// `FilterExec` is needed above it.
    pub fn evaluates_filter(&self) -> bool {
        self.filter.is_some()
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
        let ranges = even_ranges(self.table.len(), ctx.runtime.num_executors());
        let batch_size = ctx.batch_size.max(1);
        Ok(ranges
            .into_iter()
            .map(|(start, end)| {
                let table = self.table.clone();
                let filter = self.filter.clone();
                let ctx = ctx.clone();
                let mut pos = start;
                PartitionStream::of_batches(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    if pos >= end {
                        return Ok(None);
                    }
                    ctx.control.check()?;
                    let upto = (pos + batch_size).min(end);
                    let mut batch = table.batch(pos, upto);
                    pos = upto;
                    ctx.metrics
                        .rows_scanned
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    if let Some(filter) = &filter {
                        filter.apply(&mut batch)?;
                        // Like the `FilterExec` it replaces: no empty
                        // batch goes downstream.
                        if batch.is_empty() {
                            continue;
                        }
                    }
                    return Ok(Some(Batch::Columns(batch)));
                })
            })
            .collect())
    }

    fn describe(&self) -> String {
        let filter = match &self.filter {
            Some(filter) => format!(", filter: {}", filter.describe(&self.schema)),
            None => String::new(),
        };
        format!(
            "ScanExec [{}: {} rows{filter}]",
            self.label,
            self.table.len()
        )
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
        ScanExec::from_rows("t", rows, schema).unwrap()
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
