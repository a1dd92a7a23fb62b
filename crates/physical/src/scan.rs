//! The table scan, over an in-memory or a disk-resident table.
//!
//! A catalog hands the planner a table as [`TableData`]: an in-memory
//! [`MemTable`] (immutable column chunks, the layout of a [`ColumnBatch`]
//! without its selection vector) or an opened [`DiskTable`] (an SPKB
//! block file). [`ScanExec`] reads either. Only the way a partition gets
//! its batches differs:
//!
//! - **Memory.** The table's rows are split evenly across the executors,
//!   and each batch's rows are copied out of the chunks into a column
//!   batch (across a chunk boundary where a batch spans two).
//! - **Disk.** Every block's skip verdict is taken from footer metadata
//!   first, and only the kept blocks are dealt to the executors; each
//!   block then decodes batch by batch into a column batch (see
//!   [`scan_disk`](crate::scan_disk)).
//!
//! Everything else is one code path. A `WHERE` clause that is an `AND` of
//! exactly comparable `column <op> literal` conjuncts is the scan's own:
//! it evaluates it on each batch's buffers with its [`ScanFilter`], and
//! the planner plans no `FilterExec`. Every batch goes downstream as
//! [`Batch::Columns`]; an operator that wants rows gets them built from
//! the selected rows, and the local skyline builds one only for a row
//! that survives its first cross-filter. `EXPLAIN` names a disk-backed
//! scan `DiskScanExec` and shows its block verdicts.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use sparkline_common::{ColumnBatch, Error, MemTable, Result, Row, SchemaRef};
use sparkline_exec::{partition::even_ranges, Batch, PartitionStream, TaskContext};
use sparkline_plan::Expr;
use sparkline_storage::DiskTable;

use crate::scan_disk::{BlockPruning, BlockReader, DominanceSkip, GateSample};
use crate::scan_filter::{extract_column_predicates, float_columns, ColumnPredicate, ScanFilter};
use crate::ExecutionPlan;

/// A table's data as a catalog hands it to the planner.
#[derive(Debug, Clone)]
pub enum TableData {
    /// An in-memory table: a snapshot of its chunks, which a concurrent
    /// insert or delete never mutates.
    Memory(MemTable),
    /// A disk-resident table: an opened block file, immutable once open.
    Disk(Arc<DiskTable>),
}

impl TableData {
    /// The table's row count.
    pub fn num_rows(&self) -> usize {
        match self {
            TableData::Memory(table) => table.len(),
            TableData::Disk(table) => table.total_rows() as usize,
        }
    }
}

/// Scans a table (or inline `VALUES` rows) in memory or on disk into
/// `num_executors` partition streams of column batches — Spark's default
/// distribution for a fresh read.
///
/// Each stream reads one batch per pull, so a `LIMIT`-short-circuited
/// query never touches (or counts in `rows_scanned`) the rows it does not
/// read. A disk stream holds at most one block's *encoded* payload
/// (budget-reserved against the query's
/// [`MemoryTracker`](sparkline_exec::MemoryTracker)) beside the batch it
/// decodes, so peak scan memory is independent of file size.
#[derive(Debug)]
pub struct ScanExec {
    label: String,
    data: TableData,
    schema: SchemaRef,
    filter: Option<ScanFilter>,
    /// The footer-metadata verdicts of a disk scan; a memory scan has no
    /// blocks to skip and reads none of it.
    pruning: BlockPruning,
}

impl ScanExec {
    /// Scan over a table. `schema` is the analyzer's (its qualified field
    /// names), structurally identical to the table's.
    pub fn new(label: impl Into<String>, data: TableData, schema: SchemaRef) -> Self {
        ScanExec {
            label: label.into(),
            data,
            schema,
            filter: None,
            pruning: BlockPruning::default(),
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
        Ok(ScanExec::new(label, TableData::Memory(table), schema))
    }

    /// Attach min/max bounds, which only prune disk blocks.
    pub(crate) fn with_bounds(mut self, bounds: Vec<ColumnPredicate>) -> Self {
        self.pruning.bounds = bounds;
        self
    }

    /// Take over the `Filter` directly above the scan. When its whole
    /// predicate is an `AND` of exactly comparable conjuncts the scan
    /// evaluates it ([`evaluates_filter`](Self::evaluates_filter)); any
    /// other predicate is left to a `FilterExec`. On disk the prunable
    /// conjuncts become min/max bounds either way.
    pub fn with_filter(mut self, predicate: &Expr) -> Self {
        self.filter = ScanFilter::new(predicate, &self.schema);
        self.pruning.filter_columns = float_columns(predicate, &self.schema);
        let bounds = extract_column_predicates(predicate, &self.schema);
        self.with_bounds(bounds)
    }

    /// Whether the scan evaluates its filter's whole predicate, so no
    /// `FilterExec` is needed above it.
    pub fn evaluates_filter(&self) -> bool {
        self.filter.is_some()
    }
}

/// One partition's batches before the scan's filter.
enum Reader {
    /// The rows `pos..end` of an in-memory table.
    Memory {
        table: MemTable,
        pos: usize,
        end: usize,
    },
    /// A contiguous run of kept disk blocks.
    Disk(BlockReader),
}

impl Reader {
    /// The next batch of at most `batch_size` rows, `None` at the end.
    fn next(&mut self, ctx: &TaskContext, batch_size: usize) -> Result<Option<ColumnBatch>> {
        match self {
            Reader::Memory { table, pos, end } => {
                if *pos >= *end {
                    return Ok(None);
                }
                let upto = (*pos + batch_size).min(*end);
                let batch = table.batch(*pos, upto);
                *pos = upto;
                Ok(Some(batch))
            }
            Reader::Disk(blocks) => blocks.next(ctx, batch_size),
        }
    }
}

impl ExecutionPlan for ScanExec {
    fn name(&self) -> &'static str {
        match self.data {
            TableData::Memory(_) => "ScanExec",
            TableData::Disk(_) => "DiskScanExec",
        }
    }

    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>> {
        vec![]
    }

    fn dominance_skip_slot(&self) -> Option<(&OnceLock<Arc<DominanceSkip>>, GateSample)> {
        let TableData::Disk(table) = &self.data else {
            return None;
        };
        let sample = self.pruning.gate_sample(table, self.filter.as_ref());
        Some((&self.pruning.skip, sample))
    }

    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>> {
        ctx.control.check()?;
        let executors = ctx.runtime.num_executors();
        let readers: Vec<Reader> = match &self.data {
            // Same partition boundaries as `split_evenly` — shared
            // arithmetic, so the two can never drift.
            TableData::Memory(table) => (even_ranges(table.len(), executors).into_iter())
                .map(|(pos, end)| Reader::Memory {
                    table: table.clone(),
                    pos,
                    end,
                })
                .collect(),
            TableData::Disk(table) => (self.pruning.readers(table, &self.schema, ctx)?.into_iter())
                .map(Reader::Disk)
                .collect(),
        };
        let batch_size = ctx.batch_size.max(1);
        Ok(readers
            .into_iter()
            .map(|mut reader| {
                let filter = self.filter.clone();
                let ctx = ctx.clone();
                PartitionStream::of_batches(self.schema(), Arc::clone(&ctx.metrics), move || loop {
                    ctx.control.check()?;
                    let Some(mut batch) = reader.next(&ctx, batch_size)? else {
                        return Ok(None);
                    };
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
        // A disk scan's verdicts are pure metadata, so the tag reports
        // them exactly without executing anything.
        let blocks = match &self.data {
            TableData::Memory(_) => String::new(),
            TableData::Disk(table) => self.pruning.describe(table),
        };
        format!(
            "{} [{}: {} rows{blocks}{filter}]",
            self.name(),
            self.label,
            self.data.num_rows()
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
