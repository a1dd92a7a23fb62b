#![warn(missing_docs)]

//! # sparkline-physical
//!
//! Physical operators and the physical planner of the `sparkline` engine.
//! The planner translates optimized logical plans into executable operator
//! trees and performs the paper's skyline **algorithm selection**
//! (Listing 8): complete data runs the two-phase Block-Nested-Loop plan
//! (`LocalSkylineExec` + `GlobalSkylineExec` merging the local skylines
//! pairwise over the executor pool); potentially
//! incomplete data is hash-distributed by null bitmap for the local phase
//! and finished by the all-pairs `IncompleteGlobalSkylineExec`.
//!
//! Operators follow a **pull-based, batched stream model** (the analogue
//! of Spark's pipelined narrow transformations): `execute_stream` returns
//! one [`PartitionStream`] per output partition, and each stream yields
//! `RowBatch`es of `SessionConfig::batch_size` rows on demand. Narrow
//! operators — scan, project, filter, limit, distinct, join probe sides —
//! are true pipelined transforms: pulling one batch from the root pulls
//! exactly one batch through the whole chain, so peak memory is bounded
//! by `batch_size × pipeline depth` (plus breaker state) instead of the
//! sum of all intermediates, and `LIMIT k` cancels upstream work after
//! `O(k / batch_size)` batches. Pipeline breakers — sort, aggregation,
//! exchanges, the skyline phases, join build sides — consume their input
//! streams batch-by-batch into their internal state (the skyline
//! operators feed batches straight into the columnar kernel's
//! encode-once window builders) and fan the draining of multiple input
//! streams over the executor pool, which is where the `num_executors`-way
//! parallelism of the paper's local/global structure lives.
//!
//! The provided [`ExecutionPlan::execute`] adapter drains all streams
//! back into the seed's `Vec<Partition>` form — byte-identical results —
//! and `SessionConfig::streaming_execution = false` additionally
//! re-materializes every operator boundary, reproducing the seed model's
//! memory profile for A/B benchmarks (`peak_rows_in_flight`).

pub mod aggregate;
pub mod basic;
pub mod exchange;
pub mod join;
pub mod planner;
pub mod scan;
pub mod scan_disk;
pub mod skyline_exec;

use std::fmt;
use std::sync::{Arc, OnceLock};

use sparkline_common::{Error, Result, SchemaRef};
use sparkline_exec::{Partition, PartitionStream, TaskContext};

pub use aggregate::HashAggregateExec;
pub use basic::{DistinctExec, FilterExec, LimitExec, ProjectExec, SortExec};
pub use exchange::{ExchangeExec, ExchangeMode};
pub use join::{HashJoinExec, NestedLoopJoinExec};
pub use planner::{ExecTableSource, PhysicalPlanner};
pub use scan::ScanExec;
pub use scan_disk::{ColumnPredicate, DiskScanExec, DominanceSkip};
pub use skyline_exec::{
    GlobalSkylineExec, IncompleteGlobalSkylineExec, LocalSkylineExec, MinMaxFilterExec,
};

/// A physical operator.
pub trait ExecutionPlan: fmt::Debug + Send + Sync {
    /// Operator name for plan display.
    fn name(&self) -> &'static str;

    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Child operators.
    fn children(&self) -> Vec<&Arc<dyn ExecutionPlan>>;

    /// Execute, producing one pull-based batch stream per output
    /// partition. Streams are lazy: no work happens until a batch is
    /// pulled, and dropping a stream cancels its remaining upstream work.
    fn execute_stream(&self, ctx: &TaskContext) -> Result<Vec<PartitionStream>>;

    /// Materialized adapter: drain every partition stream (fanned over
    /// the executor pool). Byte-identical to consuming the streams
    /// directly; kept for tests and the bench harness.
    ///
    /// Transient (retryable) partition failures are recovered by
    /// re-running `execute_stream` on this immutable plan subtree — the
    /// lineage — and recomputing only the failed partition, up to the
    /// context's retry budget. Finished sibling partitions keep their
    /// results.
    fn execute(&self, ctx: &TaskContext) -> Result<Vec<Partition>> {
        let streams = self.execute_stream(ctx)?;
        let expected = streams.len();
        ctx.drain_streams_retrying(streams, |i| {
            recreate_partition_stream(self, ctx, expected, i)
        })
    }

    /// One-line description (operator plus parameters).
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The write-once dominance-skip slot of a disk scan, letting the
    /// skyline planner install representative skip points after the tree
    /// is built. `None` (the default) for every other operator.
    fn dominance_skip_slot(&self) -> Option<&OnceLock<DominanceSkip>> {
        None
    }

    /// Whether every output row of this operator is an unmodified input
    /// row (subset / reorder only — filters, sorts, distinct). Gates the
    /// planner's walk from a skyline operator down to a disk scan when
    /// installing dominance-skip points: through a value-preserving chain,
    /// column positions and values are those of the scan, so a point that
    /// survives the chain dominates block rows in scan space.
    fn preserves_row_values(&self) -> bool {
        false
    }
}

/// Walk a single-child chain of value-preserving operators down to a disk
/// scan's dominance-skip slot, if one is reachable.
pub fn find_dominance_skip_slot(plan: &dyn ExecutionPlan) -> Option<&OnceLock<DominanceSkip>> {
    if let Some(slot) = plan.dominance_skip_slot() {
        return Some(slot);
    }
    if !plan.preserves_row_values() {
        return None;
    }
    let children = plan.children();
    if children.len() != 1 {
        return None;
    }
    let only: &Arc<dyn ExecutionPlan> = children[0];
    find_dominance_skip_slot(only.as_ref())
}

/// Re-run `execute_stream` on an immutable plan subtree and keep only the
/// stream for partition `i` — the lineage-based recomputation behind
/// partition retry. Errors if the re-execution yields a different
/// partition count (the plan is immutable, so that would be a bug).
pub(crate) fn recreate_partition_stream<P: ExecutionPlan + ?Sized>(
    plan: &P,
    ctx: &TaskContext,
    expected: usize,
    i: usize,
) -> Result<PartitionStream> {
    let mut fresh = plan.execute_stream(ctx)?;
    if fresh.len() != expected || i >= fresh.len() {
        return Err(Error::internal(format!(
            "retry of partition {i} re-planned {} streams, expected {expected}",
            fresh.len()
        )));
    }
    Ok(fresh.swap_remove(i))
}

/// Render a physical plan tree, one operator per line.
pub fn display_physical(plan: &Arc<dyn ExecutionPlan>) -> String {
    fn build(plan: &Arc<dyn ExecutionPlan>, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&plan.describe());
        out.push('\n');
        for child in plan.children() {
            build(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    build(plan, 0, &mut out);
    out
}

/// An operator's view of its child: the child's streams, re-materialized
/// at this boundary when the context runs the seed's materialized model
/// (`SessionConfig::streaming_execution = false`). The re-materialized
/// buffers count fully toward `rows_in_flight` for as long as the
/// consumer holds the streams — exactly the peak-memory profile of the
/// materialize-everything model the streaming benchmarks compare against.
pub(crate) fn input_streams(
    plan: &Arc<dyn ExecutionPlan>,
    ctx: &TaskContext,
) -> Result<Vec<PartitionStream>> {
    let streams = plan.execute_stream(ctx)?;
    if !ctx.materialized {
        return Ok(streams);
    }
    let expected = streams.len();
    let parts = ctx.drain_streams_retrying(streams, |i| {
        recreate_partition_stream(plan.as_ref(), ctx, expected, i)
    })?;
    // The re-materialized buffers hold budget-checked byte reservations
    // for as long as the consumer keeps the streams — the materialized
    // model's peak-memory profile, now enforced against the query budget.
    sparkline_exec::stream::streams_from_partitions_reserved(plan.schema(), ctx, parts)
}
